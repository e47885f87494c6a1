"""Adam optimizer with linear learning-rate warmup."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# Moment decay rates and the denominator's guard, as in Kingma & Ba (2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over named parameters.

    ``warmup_steps`` scales the learning rate linearly from lr/warmup up to
    the full lr over the first ``warmup_steps`` updates, then holds it flat.
    ``t`` counts applied steps.
    """

    def __init__(self, params, lr=1e-3, warmup_steps=0):
        self.params = dict(params)
        self.lr = lr
        self.warmup_steps = int(warmup_steps)
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def current_lr(self) -> float:
        if self.warmup_steps > 0 and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def step(self):
        """Apply one update from the gradients currently on the parameters."""
        lr = self.current_lr()
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - update.astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
