"""Finite-difference verification of analytic gradients, the tests' one oracle.

The oracle never touches the autograd machinery: it re-evaluates the
loss twice per coordinate with an array entry nudged by ±h and forms the
central difference (f(x+h) - f(x-h)) / 2h in plain float arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from storypointer.kernel import RngStream, Tensor

# lower bound of the relative error's denominator
DENOM_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_coord: Tuple[int, ...]
    coords_checked: int = 0

    def __str__(self) -> str:
        return (
            f"grad check: max rel error {self.max_rel_error:.3e} "
            f"at {self.worst_param}{list(self.worst_coord)} "
            f"({self.coords_checked} coordinates)"
        )


def central_difference(loss_fn: Callable[[], float], array: np.ndarray, coord: Tuple[int, ...], h: float) -> float:
    """d loss_fn / d array[coord]; loss_fn reads the array in place."""
    original = array[coord]
    array[coord] = original + h
    plus = loss_fn()
    array[coord] = original - h
    minus = loss_fn()
    array[coord] = original
    return (plus - minus) / (2.0 * h)


def fd_grad(scalar_fn: Callable[[], float], array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar_fn with respect to every entry of array."""
    grad = np.zeros_like(array)
    for coord in np.ndindex(*array.shape):
        grad[coord] = central_difference(scalar_fn, array, coord, h)
    return grad


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Dict[str, Tensor],
    h: float = 1e-5,
    max_coords_per_param: Optional[int] = None,
    rng: Optional[RngStream] = None,
) -> GradCheckReport:
    """Compare backward() gradients to central differences at step h.

    loss_fn must be deterministic in the parameters (no live dropout or
    shuffling). Relative error uses |analytic - numeric| divided by
    |analytic| + |numeric| floored at DENOM_FLOOR, so coordinates whose
    true gradient is near zero are judged on absolute error instead of
    amplified rounding noise.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}

    def scalar_loss() -> float:
        return loss_fn().item()

    report = GradCheckReport(max_rel_error=0.0, worst_param="", worst_coord=())
    for name, p in params.items():
        coords = list(np.ndindex(*p.shape))
        if max_coords_per_param is not None and len(coords) > max_coords_per_param:
            if rng is None:
                raise ValueError("sampling coordinates needs an rng")
            pick = rng.permutation(len(coords))[:max_coords_per_param]
            coords = [coords[i] for i in pick]
        for coord in coords:
            numeric = central_difference(scalar_loss, p.data, coord, h)
            a = float(analytic[name][coord])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), DENOM_FLOOR)
            report.coords_checked += 1
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_coord = coord
    return report
