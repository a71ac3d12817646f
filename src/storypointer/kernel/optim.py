"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from .tensor import Tensor

# decay rates of the first and second moment estimates, and the
# denominator's guard against division by zero
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: Dict[str, Tensor], lr: float = 0.002):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # in place, in the operation order of b1 m + (1 - b1) g and
            # b2 v + (1 - b2) g g, so the results are bitwise the same
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            gg = (1.0 - b2) * g
            gg *= g
            v *= b2
            v += gg
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_gradients(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    tensors = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in tensors)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in tensors:
            p.grad = p.grad * scale
    return total
