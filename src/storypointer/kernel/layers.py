"""Parameterized layers built on the autograd tensor.

Layers are thin containers of named parameter tensors plus a forward
method; collecting parameters for the optimizer or a checkpoint walks
the `parameters()` mapping.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .rng import RngStream
from .tensor import Tensor, _result, linear, logistic, parameter


def glorot_uniform(rng: RngStream, fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Dense:
    """Affine map with an optional elementwise activation."""

    def __init__(self, rng: RngStream, n_in: int, n_out: int, activation: str = "identity"):
        if activation not in ("identity", "relu", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.weight = parameter(glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.bias = parameter(np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        out = linear(x, self.weight, self.bias)
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        return out

    def parameters(self) -> Dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class LSTM:
    """Single-layer LSTM over ragged rows of steps, stored one row after another.

    Gate order in the stacked weight matrices is input, forget, cell,
    output. Each row's final state is the state after its last step, read
    at its length.

    A whole batch is one autograd node whose value is each row's final
    state, run packed: the rows are sorted longest first and their steps
    gathered time-major, so step t runs on the prefix of rows whose length
    exceeds t. The input projection of every step is one matmul before the
    time loop, the loop runs in plain numpy and writes each step's gate
    activations over its projected input, and the backward pass is
    hand-written backpropagation through time over the same prefixes,
    whose weight gradients are one matmul over the packed steps.
    """

    def __init__(self, rng: RngStream, n_in: int, n_hidden: int):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.w_x = parameter(glorot_uniform(rng, n_in, 4 * n_hidden, (n_in, 4 * n_hidden)))
        self.w_h = parameter(glorot_uniform(rng, n_hidden, 4 * n_hidden, (n_hidden, 4 * n_hidden)))
        self.bias = parameter(np.zeros(4 * n_hidden))

    def step(self, xw_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
             acts: np.ndarray, tanh_c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One cell update from the step's projected input x_t @ w_x + bias.

        Writes the gate activations into `acts` (batch, 4 * hidden), which
        may be `xw_t` itself, and tanh(c_new) into `tanh_c` (batch, hidden);
        returns (h_new, c_new).
        """
        n = self.n_hidden
        gates = xw_t + h_prev @ self.w_h.data
        acts[:, :2 * n] = logistic(gates[:, :2 * n])
        acts[:, 2 * n:3 * n] = np.tanh(gates[:, 2 * n:3 * n])
        acts[:, 3 * n:] = logistic(gates[:, 3 * n:])
        i, f, g, o = (acts[:, k * n:(k + 1) * n] for k in range(4))
        c_new = f * c_prev + i * g
        np.tanh(c_new, out=tanh_c)
        return o * tanh_c, c_new

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        """Run every row; returns the (batch, hidden) final states.

        x is (sum(lengths), features): row 0's steps in order, then row 1's,
        and so on, with no pads. The final state of a row is its state after
        its last step, or the zero initial state for a row of length 0.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        batch, steps = len(lengths), int(lengths.max(initial=0))
        n = self.n_hidden
        w_x, w_h = self.w_x.data, self.w_h.data
        # the packed layout: rows longest first, then step t holds the
        # sizes[t] rows whose length exceeds t, at packed positions
        # offsets[t]:offsets[t + 1]
        order = np.argsort(-lengths, kind="stable")
        sizes = np.count_nonzero(lengths > np.arange(steps)[:, None], axis=1)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        times = np.repeat(np.arange(steps), sizes)
        ranks = np.arange(offsets[-1]) - offsets[times]
        # the row of x each packed position reads: its batch row's first step, plus t
        rows = (np.cumsum(lengths) - lengths)[order[ranks]] + times
        x_packed = x.data[rows]
        xw = x_packed @ w_x
        xw += self.bias.data

        # hs and cells hold the zero initial states of all rows, then the
        # packed steps; the state entering step t's row r is at start[t] + r
        # and the state it leaves at start[t + 1] + r
        start = np.concatenate(([0], batch + offsets[:-1]))
        hs = np.zeros((batch + offsets[-1], n))
        final = np.empty((batch, n))
        node = _result(final, (x, self.w_x, self.w_h, self.bias))
        # backward needs every step's activations and cell state; inference keeps one step.
        # A step's gate activations overwrite its projected input, which
        # `step` reads into a new array first
        keep = node.requires_grad
        acts = xw
        tanh_c = np.empty((offsets[-1] if keep else batch, n))
        cells = np.zeros((len(hs), n)) if keep else None
        c = np.zeros((batch, n))
        for t in range(steps):
            s, prev, here = sizes[t], start[t], start[t + 1]
            k = offsets[t] if keep else 0
            xw_t = xw[offsets[t]:offsets[t + 1]]
            hs[here:here + s], c = self.step(xw_t, hs[prev:prev + s], c[:s], xw_t,
                                             tanh_c[k:k + s])
            if keep:
                cells[here:here + s] = c
        # rank r's final state is at start[length] + r: its zero initial state at length 0
        final[order] = hs[start[lengths[order]] + np.arange(batch)]

        if keep:
            def backward(grad):
                # dh, dc: gradient reaching the states a step leaves, for the
                # rows still active at the step after it
                d_gates = np.empty_like(acts)
                grad_sorted = grad[order]
                dh = dc = np.zeros((0, n))
                for t in reversed(range(steps)):
                    s, prev, a = sizes[t], start[t], offsets[t]
                    i, f, g, o = (acts[a:a + s, k * n:(k + 1) * n] for k in range(4))
                    tc = tanh_c[a:a + s]
                    c_prev = cells[prev:prev + s]
                    # the rows past len(dh) end at this step, so their final gradient enters here
                    dh_t = np.concatenate((dh, grad_sorted[len(dh):s]))
                    dc_t = dh_t * o * (1.0 - tc * tc)
                    dc_t[:len(dc)] += dc
                    d = d_gates[a:a + s]
                    d[:, :n] = dc_t * g * i * (1.0 - i)
                    d[:, n:2 * n] = dc_t * c_prev * f * (1.0 - f)
                    d[:, 2 * n:3 * n] = dc_t * i * (1.0 - g * g)
                    d[:, 3 * n:] = dh_t * tc * o * (1.0 - o)
                    dh = d @ w_h.T
                    dc = dc_t * f
                if self.w_x.requires_grad:
                    self.w_x._accumulate(x_packed.T @ d_gates)
                if self.w_h.requires_grad:
                    h_prev = hs[start[times] + ranks]  # the state entering each packed step
                    self.w_h._accumulate(h_prev.T @ d_gates)
                if self.bias.requires_grad:
                    self.bias._accumulate(d_gates.sum(axis=0))
                if x.requires_grad:
                    dx = np.zeros(x.shape)
                    dx[rows] = d_gates @ w_x.T
                    x._accumulate(dx)
            node._backward = backward
        return node

    def parameters(self) -> Dict[str, Tensor]:
        return {"w_x": self.w_x, "w_h": self.w_h, "bias": self.bias}
