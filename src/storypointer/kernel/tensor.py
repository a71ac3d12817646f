"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor records the operations that produced it; backward() replays them
in reverse topological order and accumulates gradients into every input
that has requires_grad set. Gradients are plain numpy arrays of the same
shape as their tensor. All math stays in float64 so finite-difference
checks against the analytic gradients are meaningful.

The op set is the one the pipeline's models train with: `+` and `*`
(broadcasting, scalars on either side), `@`, tanh, sigmoid, relu and
gelu, reshape, transpose and indexing (the one gather: integer-array
indices pick rows, and duplicates accumulate in backward), plus the
functions linear (x @ w + b), attention_scores (q @ kT * scale +
mask_bias), softmax (last axis), layer_norm, dropout, residual_layer_norm
(layer_norm(x + dropout(linear(h, w, b)))), embed (token[ids] +
position[:seq] + segment[segment_ids]), cross_entropy and mse_loss. The
tests check each op's vector-Jacobian product by seeding backward() with
a fixed random cotangent and comparing the leaf gradients against
central differences.

A fused node saves only the arrays its backward reads: a node's value
lives as long as a consumer holds it as a parent, so a composition would
keep each intermediate it passes through. linear runs every rank as one
2-D GEMM over x's rows, so its value and gradients are bitwise those of
the 2-D composition (x.reshape(-1, d) @ w + b).reshape(...), not of
numpy's batched x @ w + b, which agrees to rounding. attention_scores runs
the numpy operations of the composition it replaces, in the same order,
so its bits are the composition's. Dropout's saved keep mask is bool.
residual_layer_norm is a transformer sub-layer's output: it keeps neither
the projection, nor its dropout, nor the residual sum, only h and w as
parents, xhat, the inverse deviation and the mask. embed keeps none of
its gathers, only the id arrays. Both are bitwise their compositions:
the affine map, the layer norm's forward and backward and the mask draw
are private helpers that linear, layer_norm, dropout and
residual_layer_norm all call, so there is one copy of that math, and
residual_layer_norm hands x its gradient when its closure runs, where
the composition's residual sum did, so the order in which x's gradients
accumulate is kept too. gelu runs its in-place passes over flat blocks
of _GELU_BLOCK elements, which stay in cache from one pass to the next;
every element sees the passes of one whole-array run, in the same order,
so the bits are those of that run.

backward() frees the graph as it walks it: once an interior node's closure
has run, the node drops its `.grad`, its closure and its parents, so the
activations it saved are released before the walk ends, even while the
caller still holds the root. Only leaves (tensors no op produced) keep
their `.grad`, and a graph can be walked only once; a second backward()
from a spent root reaches no leaf.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np


class _GradMode(threading.local):
    enabled = True  # whether ops record a graph; each thread starts with it on


_GRAD_MODE = _GradMode()

# constants of the tanh approximation to GELU
_GELU_A = 0.044715
_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5  # added to the variance in layer_norm
_GELU_BLOCK = 1 << 15  # elements per gelu or dropout block: 256 KiB of float64


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode),
    in the calling thread only."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


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
        # inner term evaluated as c x (1 + a x^2): in-place passes and no
        # pow(), block by block (see the module docstring)
        x = self.data
        xf = x.reshape(-1)
        t = np.empty_like(xf)
        value = np.empty_like(xf)
        for block in _blocks(xf.size):
            xb, tb, vb = xf[block], t[block], value[block]
            np.multiply(xb, xb, out=tb)
            tb *= _GELU_A
            tb += 1.0
            tb *= xb
            tb *= _GELU_C
            np.tanh(tb, out=tb)
            np.add(tb, 1.0, out=vb)
            vb *= xb
            vb *= 0.5
        out = _result(value.reshape(x.shape), (self,))
        if out.requires_grad:
            def backward(grad):
                # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), written
                # into one full-size gradient with one block of scratch
                xf = x.reshape(-1)
                gf = grad.reshape(-1)
                local = np.empty_like(xf)
                tmp = np.empty_like(xf[:_GELU_BLOCK])
                for block in _blocks(xf.size):
                    xb, tb, lb = xf[block], t[block], local[block]
                    sb = tmp[:lb.size]
                    np.multiply(xb, xb, out=lb)
                    lb *= 3.0 * _GELU_A
                    lb += 1.0
                    lb *= _GELU_C
                    lb *= xb
                    lb *= 0.5
                    np.multiply(tb, tb, out=sb)
                    np.subtract(1.0, sb, out=sb)
                    lb *= sb
                    np.add(tb, 1.0, out=sb)
                    sb *= 0.5
                    lb += sb
                    lb *= gf[block]
                self._accumulate(local.reshape(x.shape))
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

    def __getitem__(self, idx) -> "Tensor":
        out = _result(self.data[idx], (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(_scatter(self.data, idx, grad))
        return out


def _blocks(size: int):
    """Slices that cover range(size) in order, _GELU_BLOCK elements at most."""
    return [slice(start, start + _GELU_BLOCK) for start in range(0, size, _GELU_BLOCK)]


def _scatter(table: np.ndarray, idx, grad: np.ndarray) -> np.ndarray:
    """The gradient of table[idx]: grad added into zeros at idx, so a
    repeated index accumulates."""
    full = np.zeros_like(table)
    np.add.at(full, idx, grad)
    return full


def _result(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b as one 2-D GEMM over x's rows, the bias added in place."""
    value = x.reshape(-1, x.shape[-1]) @ w
    value += b
    return value.reshape(x.shape[:-1] + value.shape[-1:])


def _affine_backward(grad: np.ndarray, x: Tensor, w: Tensor, b: Tensor) -> None:
    """Accumulate the gradients of x @ w + b, reading only x and w."""
    g2 = grad.reshape(-1, grad.shape[-1])
    if b.requires_grad:
        b._accumulate(g2.sum(axis=0))
    if x.requires_grad:
        x._accumulate((g2 @ w.data.T).reshape(x.shape))
    if w.requires_grad:
        w._accumulate(x.data.reshape(-1, x.shape[-1]).T @ g2)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map x @ w + b as one node, for x of shape (..., d), w of
    shape (d, h) and b of shape (h,).

    Every rank runs as one 2-D GEMM over x's rows, x.reshape(-1, d) @ w,
    and so do both products of backward; the weight gradient is one (d, h)
    product, with no per-row-block stack to sum away. So the value and
    gradients are bitwise those of the 2-D composition
    (x.reshape(-1, d) @ w + b).reshape(..., h), and agree with numpy's
    batched x @ w + b, which runs one small GEMM per leading index, to
    rounding. The bias is added into the product in place, and backward
    reads only x and w (taking x's rows from x.data again), so neither the
    bare product nor the sum is kept for it.
    """
    out = _result(_affine(x.data, w.data, b.data), (x, w, b))
    if out.requires_grad:
        out._backward = lambda grad: _affine_backward(grad, x, w, b)
    return out


def attention_scores(q: Tensor, k: Tensor, scale: float, mask_bias: np.ndarray) -> Tensor:
    """Scaled dot-product scores q @ kT * scale + mask_bias as one node.

    q and k are (..., seq, head_dim); `mask_bias` is a constant array that
    broadcasts over the (..., seq_q, seq_k) scores. Backward reads only q
    and k, so no score array is kept for it.
    """
    value = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    value *= scale
    value += mask_bias
    out = _result(value, (q, k))
    if out.requires_grad:
        def backward(grad):
            grad = grad * scale
            if q.requires_grad:
                q._accumulate(unbroadcast(np.matmul(grad, k.data), q.shape))
            if k.requires_grad:
                gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), grad), -1, -2)
                k._accumulate(unbroadcast(gk, k.shape))
        out._backward = backward
    return out


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray,
                        bias: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """layer_norm's value, and the xhat and inverse deviation its backward reads."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    value = gain * xhat
    value += bias
    return value, xhat, inv


def _layer_norm_backward(grad: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor,
                         bias: Tensor, need_dx: bool) -> Optional[np.ndarray]:
    """Accumulate the gain and bias gradients; return the input's gradient
    if `need_dx`, else None."""
    # one scratch array holds grad * xhat, then dxhat * xhat, then xhat * proj
    scratch = grad * xhat
    if gain.requires_grad:
        # a copy: unbroadcast returns scratch itself when gain is as large as x
        gain._accumulate(unbroadcast(scratch, gain.shape).copy())
    if bias.requires_grad:
        bias._accumulate(unbroadcast(grad, bias.shape))
    if not need_dx:
        return None
    dxhat = grad * gain.data
    proj = np.multiply(dxhat, xhat, out=scratch).mean(axis=-1, keepdims=True)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= np.multiply(xhat, proj, out=scratch)
    dxhat *= inv
    return dxhat


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    value, xhat, inv = _layer_norm_forward(x.data, gain.data, bias.data)
    out = _result(value, (x, gain, bias))
    if out.requires_grad:
        def backward(grad):
            dx = _layer_norm_backward(grad, xhat, inv, gain, bias, x.requires_grad)
            if dx is not None:
                x._accumulate(dx)
        out._backward = backward
    return out


def _keep_mask(shape: Tuple[int, ...], rate: float, rng) -> Optional[np.ndarray]:
    """Dropout's bool keep mask for `rate` in [0, 1), None at rate 0.

    The rate is checked before anything else, so an invalid one is refused
    even where it would otherwise mean the identity. The mask is an eighth
    of a float mask's bytes; its uniforms are drawn a block at a time, so no
    whole float array of them exists (the stream gives the same doubles as
    one whole-array draw and is left where that draw leaves it).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    for block in _blocks(flat.size):
        part = flat[block]
        np.greater_equal(rng.random(part.size), rate, out=part)
    return keep


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout; rate 0 is the identity."""
    keep = _keep_mask(x.shape, rate, rng)
    if keep is None:
        return x
    scale = 1.0 / (1.0 - rate)
    value = x.data * keep
    value *= scale
    out = _result(value, (x,))
    if out.requires_grad:
        def backward(grad):
            local = grad * keep
            local *= scale
            x._accumulate(local)
        out._backward = backward
    return out


def residual_layer_norm(x: Tensor, h: Tensor, w: Tensor, b: Tensor, gain: Tensor, bias: Tensor,
                        rate: float, rng) -> Tensor:
    """A transformer sub-layer's output, layer_norm(x + dropout(linear(h, w,
    b), rate, rng), gain, bias), as one node.

    h is (..., d) with the leading shape of x, and w is (d, H) for x's
    last axis H. The composition would hold the projection, its dropout
    and the residual sum only as parents of the next op; this node holds
    none of them. Backward reads h and w (as parents), xhat, the inverse
    deviation and the bool keep mask. The projection, mask draw, residual
    sum and layer norm run the numpy operations of the composition, in
    the same order, so the value and every gradient are its bits, and the
    mask takes the same draws from `rng`.
    """
    y = _affine(h.data, w.data, b.data)
    keep = _keep_mask(y.shape, rate, rng)
    scale = 1.0 / (1.0 - rate)
    if keep is not None:
        y *= keep
        y *= scale
    y += x.data  # x + y: the residual sum, which commutes bitwise
    value, xhat, inv = _layer_norm_forward(y, gain.data, bias.data)
    out = _result(value, (x, h, w, b, gain, bias))
    if out.requires_grad:
        def backward(grad):
            need_dy = h.requires_grad or w.requires_grad or b.requires_grad
            ds = _layer_norm_backward(grad, xhat, inv, gain, bias, x.requires_grad or need_dy)
            if x.requires_grad:
                x._accumulate(ds)
            if need_dy:
                if keep is not None:
                    ds = ds * keep
                    ds *= scale
                _affine_backward(ds, h, w, b)
        out._backward = backward
    return out


def embed(token: Tensor, ids: np.ndarray, position: Tensor, segment: Tensor,
          segment_ids: np.ndarray) -> Tensor:
    """The encoder's embedding sum token[ids] + position[:seq] +
    segment[segment_ids] as one node, added in that order.

    `ids` and `segment_ids` are (batch, seq) integer arrays. The
    composition would hold the three gathers and the first sum only as
    parents; this node holds none of them, and its backward reads only the
    two id arrays. Each table's gradient is scattered with np.add.at into
    zeros, as indexing's backward does, so repeated ids accumulate and the
    bits are the composition's.
    """
    seq = ids.shape[-1]
    value = token.data[ids]
    value += position.data[:seq]
    value += segment.data[segment_ids]
    out = _result(value, (token, position, segment))
    if out.requires_grad:
        def backward(grad):
            if token.requires_grad:
                token._accumulate(_scatter(token.data, ids, grad))
            if position.requires_grad:
                position._accumulate(_scatter(position.data, slice(None, seq), grad.sum(axis=0)))
            if segment.requires_grad:
                segment._accumulate(_scatter(segment.data, segment_ids, grad))
        out._backward = backward
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
