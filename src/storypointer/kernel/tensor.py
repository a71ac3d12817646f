"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor records the operations that produced it; backward() replays them
in reverse topological order and accumulates gradients into every input
that has requires_grad set. Gradients are plain numpy arrays of the same
shape as their tensor. All math stays in float64 so finite-difference
checks against the analytic gradients are meaningful.

The op set is the one the pipeline's models train with: `+` and `*`
(broadcasting, scalars on either side), `@`, tanh, sigmoid, relu and
gelu, reshape, transpose, swapaxes and indexing, plus the functions
take_rows, softmax (last axis), layer_norm, dropout, cross_entropy and
mse_loss. The tests check each op's vector-Jacobian product by seeding
backward() with a fixed random cotangent and comparing the leaf
gradients against central differences.

backward() frees the graph as it walks it: once an interior node's closure
has run, the node drops its `.grad`, its closure and its parents, so the
activations it saved are released before the walk ends, even while the
caller still holds the root. Only leaves (tensors no op produced) keep
their `.grad`, and a graph can be walked only once; a second backward()
from a spent root reaches no leaf.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

_GRAD_ENABLED = True

# constants of the tanh approximation to GELU
_GELU_A = 0.044715
_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5  # added to the variance in layer_norm


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

    def __init__(self, data):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = False
        self._parents: Tuple[Tensor, ...] = ()
        self._backward = None

    # ---- plumbing ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

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

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add `grad` into `self.grad`.

        The first gradient is stored as given, not copied, so `.grad`
        arrays may alias one another and the seed passed to backward():
        a sum hands one buffer to both of its parents. That is safe
        because nothing in `src/` mutates a `.grad` in place: backward
        closures, accumulation, clipping and the optimizer all read a
        gradient and write a new array. An interior node holds its
        `.grad` only until backward() has run its closure; a leaf keeps
        it until the caller clears it.
        """
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=False)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ValueError(f"backward() seed has shape {np.shape(grad)}, expected {self.shape}")
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
        while topo:
            node = topo.pop()  # popped, so the list does not keep a spent node's value alive
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            # release the node's gradient, closure and saved activations
            node.grad = None
            node._backward = None
            node._parents = ()

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

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = _result(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * (1.0 - value ** 2))
        return out

    def sigmoid(self) -> "Tensor":
        value = logistic(self.data)
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
        # tanh approximation 0.5 x (1 + tanh(c (x + a x^3))), with the
        # inner term evaluated as c x (1 + a x^2): in-place passes over
        # two buffers and no pow()
        x = self.data
        t = x * x
        t *= _GELU_A
        t += 1.0
        t *= x
        t *= _GELU_C
        np.tanh(t, out=t)
        value = t + 1.0
        value *= x
        value *= 0.5
        out = _result(value, (self,))
        if out.requires_grad:
            def backward(grad):
                # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)
                local = x * x
                local *= 3.0 * _GELU_A
                local += 1.0
                local *= _GELU_C
                local *= x
                local *= 0.5
                tmp = t * t
                np.subtract(1.0, tmp, out=tmp)
                local *= tmp
                np.add(t, 1.0, out=tmp)
                tmp *= 0.5
                local += tmp
                local *= grad
                self._accumulate(local)
            out._backward = backward
        return out

    # ---- shape -------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out = _result(self.data.reshape(shape), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad.reshape(self.shape))
        return out

    def transpose(self, *axes: int) -> "Tensor":
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


def ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    """A trainable tensor (copies its input so callers keep ownership)."""
    t = Tensor(np.array(data, dtype=np.float64, copy=True))
    t.requires_grad = True
    return t


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


def logistic(z: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + e^-z) of a plain array."""
    return 1.0 / (1.0 + np.exp(-z))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    value = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(value, out=value)
    value /= value.sum(axis=-1, keepdims=True)
    out = _result(value, (x,))
    if out.requires_grad:
        def backward(grad):
            local = grad * value
            dot = local.sum(axis=-1, keepdims=True)
            np.subtract(grad, dot, out=local)
            local *= value
            x._accumulate(local)
        out._backward = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    value = gain.data * xhat
    value += bias.data
    out = _result(value, (x, gain, bias))
    if out.requires_grad:
        def backward(grad):
            if gain.requires_grad:
                gain._accumulate(unbroadcast(grad * xhat, gain.shape))
            if bias.requires_grad:
                bias._accumulate(unbroadcast(grad, bias.shape))
            if x.requires_grad:
                dxhat = grad * gain.data
                proj = (dxhat * xhat).mean(axis=-1, keepdims=True)
                dxhat -= dxhat.mean(axis=-1, keepdims=True)
                dxhat -= xhat * proj
                dxhat *= inv
                x._accumulate(dxhat)
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


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax logits.

    logits has shape (..., C) and targets the matching leading shape.
    """
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    n = flat_targets.shape[0]
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(n)
    out = _result(np.asarray(-log_p[rows, flat_targets].sum() / n), (logits,))
    if out.requires_grad:
        def backward(grad):
            p = np.exp(log_p)
            p[rows, flat_targets] -= 1.0
            logits._accumulate((grad * p / n).reshape(logits.shape))
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
