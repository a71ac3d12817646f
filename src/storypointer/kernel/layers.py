"""Parameterized layers built on the autograd tensor.

Layers are thin containers of named parameter tensors plus a forward
method; collecting parameters for the optimizer or a checkpoint walks
the `parameters()` mapping.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .rng import RngStream
from .tensor import Tensor, _result, logistic, parameter


def glorot_uniform(rng: RngStream, fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Dense:
    """Affine map with an optional elementwise activation."""

    def __init__(self, rng: RngStream, n_in: int, n_out: int, activation: str = "identity"):
        if activation not in ("identity", "relu", "tanh", "gelu", "sigmoid"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.weight = parameter(glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.bias = parameter(np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight + self.bias
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        elif self.activation == "gelu":
            out = out.gelu()
        elif self.activation == "sigmoid":
            out = out.sigmoid()
        return out

    def parameters(self) -> Dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class LSTM:
    """Single-layer LSTM over (batch, time, features) inputs.

    Gate order in the stacked weight matrices is input, forget, cell,
    output. A per-step mask keeps the previous state on padded steps so
    trailing pads cannot change the final state.

    A whole sequence is one autograd node. The input projection of every
    step is one matmul before the time loop, the loop runs in plain numpy
    and caches the gate activations, and the backward pass is hand-written
    backpropagation through time whose weight gradients are one matmul
    over the stacked steps.
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

        Writes the gate activations into `acts` (batch, 4 * hidden) and
        tanh(c_new) into `tanh_c` (batch, hidden); returns (h_new, c_new).
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

    def __call__(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Run the full sequence; returns (all hidden states, final hidden).

        mask has shape (batch, time) with 1.0 on real steps, 0.0 on pads.
        """
        batch, steps, n_in = x.shape
        n = self.n_hidden
        w_x, w_h = self.w_x.data, self.w_h.data
        m = np.ones((batch, steps)) if mask is None else np.asarray(mask, dtype=np.float64)
        keep = 1.0 - m
        x2d = x.data.reshape(batch * steps, n_in)
        xw = x2d @ w_x
        xw += self.bias.data
        xw = xw.reshape(batch, steps, 4 * n)

        hidden = np.empty((batch, steps, n))     # hidden state after each step's mask blend
        outputs = _result(hidden, (x, self.w_x, self.w_h, self.bias))
        # backward needs every step's activations and cell state; inference keeps one step
        kept = steps if outputs.requires_grad else 1
        acts = np.empty((batch, kept, 4 * n))
        tanh_c = np.empty((batch, kept, n))
        cells = np.empty((batch, kept, n))       # cell state after each step's mask blend
        h = np.zeros((batch, n))
        c = np.zeros((batch, n))
        for t in range(steps):
            k = min(t, kept - 1)
            h_new, c_new = self.step(xw[:, t], h, c, acts[:, k], tanh_c[:, k])
            m_t, keep_t = m[:, t:t + 1], keep[:, t:t + 1]
            h = m_t * h_new + keep_t * h
            c = m_t * c_new + keep_t * c
            hidden[:, t] = h
            cells[:, k] = c

        if outputs.requires_grad:
            def backward(grad):
                # dh, dc: gradient reaching the blended state after step t
                d_gates = np.empty((batch, steps, 4 * n))
                dh = np.zeros((batch, n))
                dc = np.zeros((batch, n))
                for t in reversed(range(steps)):
                    i, f, g, o = (acts[:, t, k * n:(k + 1) * n] for k in range(4))
                    tc = tanh_c[:, t]
                    c_prev = cells[:, t - 1] if t else 0.0
                    m_t, keep_t = m[:, t:t + 1], keep[:, t:t + 1]
                    dh = dh + grad[:, t]
                    dh_new = m_t * dh
                    dc_new = m_t * dc + dh_new * o * (1.0 - tc * tc)
                    d = d_gates[:, t]
                    d[:, :n] = dc_new * g * i * (1.0 - i)
                    d[:, n:2 * n] = dc_new * c_prev * f * (1.0 - f)
                    d[:, 2 * n:3 * n] = dc_new * i * (1.0 - g * g)
                    d[:, 3 * n:] = dh_new * tc * o * (1.0 - o)
                    dh = keep_t * dh + d @ w_h.T
                    dc = keep_t * dc + dc_new * f
                flat = d_gates.reshape(batch * steps, 4 * n)
                if self.w_x.requires_grad:
                    self.w_x._accumulate(x2d.T @ flat)
                if self.w_h.requires_grad:
                    h_prev = np.zeros_like(hidden)    # the state entering each step
                    h_prev[:, 1:] = hidden[:, :-1]
                    self.w_h._accumulate(h_prev.reshape(batch * steps, n).T @ flat)
                if self.bias.requires_grad:
                    self.bias._accumulate(flat.sum(axis=0))
                if x.requires_grad:
                    x._accumulate((flat @ w_x.T).reshape(x.shape))
            outputs._backward = backward
        return outputs, outputs[:, -1]

    def parameters(self) -> Dict[str, Tensor]:
        return {"w_x": self.w_x, "w_h": self.w_h, "bias": self.bias}
