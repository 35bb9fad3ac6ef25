"""AdamW with decoupled weight decay."""

import numpy as np

from .errors import TrainingError

# Moment decay rates and the denominator's floor of Kingma & Ba 2015.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Per-parameter moment tracking keyed by parameter name.

    Decay is applied multiplicatively to the parameter before the
    adaptive update (decoupled form); moments are bias-corrected.
    """

    def __init__(self, lr, weight_decay):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        """Apply one update to a dict of name -> Tensor with populated grads.

        Every gradient is checked before any state changes, so a non-finite
        one leaves the parameters, moments and step count as they were.
        """
        for name, p in params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETA1, BETA2
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            mhat = m / (1.0 - b1**t)
            vhat = v / (1.0 - b2**t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)

    def zero_grad(self, params):
        for p in params.values():
            p.grad = None

    def state_buffers(self):
        """Moment arrays as named float buffers for checkpointing."""
        out = {}
        for name in self.m:
            out[f"opt.m:{name}"] = self.m[name]
            out[f"opt.v:{name}"] = self.v[name]
        return out

    def load_state_buffers(self, buffers, step_count):
        self.step_count = int(step_count)
        self.m = {}
        self.v = {}
        for key, arr in buffers.items():
            if key.startswith("opt.m:"):
                self.m[key[len("opt.m:"):]] = arr.astype(np.float32)
            elif key.startswith("opt.v:"):
                self.v[key[len("opt.v:"):]] = arr.astype(np.float32)
