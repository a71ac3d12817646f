"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor records the operations that produced it; backward() replays them
in reverse topological order and accumulates gradients into every input
that has requires_grad set. Gradients are plain numpy arrays of the same
shape as their tensor. All math stays in float64 so finite-difference
checks against the analytic gradients are meaningful.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: Tuple[Tensor, ...] = ()
        self._backward = None

    # ---- plumbing ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out = _result(np.add(self.data, other.data), (self, other))
        if out.requires_grad:
            def backward(grad):
                if self.requires_grad:
                    self._accumulate(unbroadcast(grad, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(grad, other.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out = _result(np.multiply(self.data, other.data), (self, other))
        if out.requires_grad:
            def backward(grad):
                if self.requires_grad:
                    self._accumulate(unbroadcast(grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(grad * self.data, other.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out = _result(np.divide(self.data, other.data), (self, other))
        if out.requires_grad:
            def backward(grad):
                if self.requires_grad:
                    self._accumulate(unbroadcast(grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                    )
            out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = _result(self.data ** exponent, (self,))
        if out.requires_grad:
            def backward(grad):
                self._accumulate(grad * exponent * self.data ** (exponent - 1))
            out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out = _result(np.matmul(self.data, other.data), (self, other))
        if out.requires_grad:
            def backward(grad):
                if self.requires_grad:
                    ga = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                    self._accumulate(unbroadcast(ga, self.shape))
                if other.requires_grad:
                    gb = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                    other._accumulate(unbroadcast(gb, other.shape))
            out._backward = backward
        return out

    # ---- elementwise -------------------------------------------------

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = _result(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * value)
        return out

    def log(self) -> "Tensor":
        out = _result(np.log(self.data), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad / self.data)
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = _result(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * 0.5 / value)
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = _result(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * (1.0 - value ** 2))
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = _result(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * value * (1.0 - value))
        return out

    def relu(self) -> "Tensor":
        out = _result(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = (self.data > 0.0).astype(self.data.dtype)
            out._backward = lambda grad: self._accumulate(grad * mask)
        return out

    def gelu(self) -> "Tensor":
        # tanh approximation: 0.5 x (1 + tanh(c (x + a x^3)))
        a = 0.044715
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        inner = c * (x + a * x ** 3)
        t = np.tanh(inner)
        out = _result(0.5 * x * (1.0 + t), (self,))
        if out.requires_grad:
            def backward(grad):
                d_inner = c * (1.0 + 3.0 * a * x ** 2)
                local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner
                self._accumulate(grad * local)
            out._backward = backward
        return out

    # ---- reducing ops / shape ----------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _result(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def backward(grad):
                self._accumulate(_spread(grad, self.shape, axis, keepdims))
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else _axis_count(self.shape, axis)
        out = _result(self.data.mean(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def backward(grad):
                self._accumulate(_spread(grad, self.shape, axis, keepdims) / count)
            out._backward = backward
        return out

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _result(self.data.reshape(shape), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad.reshape(self.shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = _result(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))
            out._backward = lambda grad: self._accumulate(grad.transpose(inverse))
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = _result(np.swapaxes(self.data, a, b), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(np.swapaxes(grad, a, b))
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = _result(self.data[idx], (self,))
        if out.requires_grad:
            def backward(grad):
                full = np.zeros_like(self.data)
                np.add.at(full, idx, grad)
                self._accumulate(full)
            out._backward = backward
        return out


def _result(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


def _axis_count(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    count = 1
    for a in axis:
        count *= shape[a]
    return count


def _spread(grad: np.ndarray, shape: Tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(grad, shape).copy()
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape).copy()


def ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    """A trainable tensor (copies its input so callers keep ownership)."""
    t = Tensor(np.array(data, dtype=np.float64, copy=True))
    t.requires_grad = True
    return t


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def backward(grad):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(lo, hi)
                    t._accumulate(grad[tuple(index)])
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    expanded = []
    for t in tensors:
        t = ensure_tensor(t)
        shape = list(t.shape)
        shape.insert(axis % (t.ndim + 1), 1)
        expanded.append(t.reshape(shape))
    return concat(expanded, axis=axis)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-d table by integer id; duplicates accumulate."""
    ids = np.asarray(ids, dtype=np.int64)
    out = _result(table.data[ids], (table,))
    if out.requires_grad:
        def backward(grad):
            full = np.zeros_like(table.data)
            np.add.at(full, ids.reshape(-1), grad.reshape(-1, table.shape[-1]))
            table._accumulate(full)
        out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=axis, keepdims=True)
    out = _result(value, (x,))
    if out.requires_grad:
        def backward(grad):
            dot = (grad * value).sum(axis=axis, keepdims=True)
            x._accumulate(value * (grad - dot))
        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = _result(value, (x,))
    if out.requires_grad:
        def backward(grad):
            p = np.exp(value)
            x._accumulate(grad - p * grad.sum(axis=axis, keepdims=True))
        out._backward = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _result(gain.data * xhat + bias.data, (x, gain, bias))
    if out.requires_grad:
        def backward(grad):
            if gain.requires_grad:
                gain._accumulate(unbroadcast(grad * xhat, gain.shape))
            if bias.requires_grad:
                bias._accumulate(unbroadcast(grad, bias.shape))
            if x.requires_grad:
                dxhat = grad * gain.data
                term = dxhat - dxhat.mean(axis=-1, keepdims=True)
                term = term - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate(inv * term)
        out._backward = backward
    return out


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout; rate 0 is the identity."""
    if rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    scale = 1.0 / (1.0 - rate)
    out = _result(x.data * keep * scale, (x,))
    if out.requires_grad:
        out._backward = lambda grad: x._accumulate(grad * keep * scale)
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax logits.

    logits has shape (..., C) and targets the matching leading shape.
    Rows whose target equals ignore_index contribute nothing.
    """
    targets = np.asarray(targets, dtype=np.int64)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones(flat_targets.shape, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy got no valid targets")
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(flat_targets.shape[0])
    picked = np.where(valid, log_p[rows, np.where(valid, flat_targets, 0)], 0.0)
    out = _result(np.asarray(-picked.sum() / n_valid), (logits,))
    if out.requires_grad:
        def backward(grad):
            p = np.exp(log_p)
            p[rows[valid], flat_targets[valid]] -= 1.0
            p[~valid] = 0.0
            logits._accumulate((grad * p / n_valid).reshape(logits.shape))
        out._backward = backward
    return out


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = pred.data - target
    out = _result(np.asarray((diff ** 2).mean()), (pred,))
    if out.requires_grad:
        out._backward = lambda grad: pred._accumulate(grad * 2.0 * diff / diff.size)
    return out
