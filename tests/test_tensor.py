"""Autograd op tests against the finite-difference oracle in gradcheck.py.

Each op's vector-Jacobian product is checked by seeding backward() with
a fixed random cotangent w and differencing the scalar sum(f(x) * w),
formed in numpy, with plain central differences over the leaf arrays.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from storypointer.kernel import (
    RngStream,
    Tensor,
    attention_scores,
    cross_entropy,
    dropout,
    embed,
    layer_norm,
    linear,
    mse_loss,
    no_grad,
    parameter,
    residual_layer_norm,
    softmax,
)
from storypointer.kernel.tensor import _GELU_BLOCK as GELU_BLOCK
from storypointer.kernel.tensor import logistic

from gradcheck import fd_grad, grad_check


def check_vjp(f, arrays, rtol=1e-5, atol=1e-7):
    """f(*tensors) -> Tensor of any shape; arrays are the leaf values."""
    leaves = [parameter(a) for a in arrays]
    out = f(*leaves)
    w = RngStream(99).uniform(-1.0, 1.0, out.shape)
    out.backward(w)

    def projected():
        # fd_grad perturbs the original arrays, which fresh tensors read
        return float((f(*[Tensor(a) for a in arrays]).data * w).sum())

    for leaf, array in zip(leaves, arrays):
        np.testing.assert_allclose(leaf.grad, fd_grad(projected, array), rtol=rtol, atol=atol)


def assert_same_bits(actual, expected):
    """Equal shapes and identical float64 bit patterns (so -0.0 != 0.0)."""
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture
def rng():
    return RngStream(1234)


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        a = rng.uniform(-0.5, 0.5, (3, 4))
        b = rng.uniform(-0.5, 0.5, (4,))
        check_vjp(lambda x, y: x + y, [a, b])

    def test_mul_broadcast(self, rng):
        a = rng.uniform(0.5, 1.5, (2, 3))
        b = rng.uniform(0.5, 1.5, (2, 1))
        check_vjp(lambda x, y: x * y, [a, b])

    def test_scalar_mixing(self, rng):
        a = rng.uniform(-0.5, 0.5, (5,))
        check_vjp(lambda x: 1.0 + 2.0 * x * 3.0 + x, [a])

    def test_tanh_sigmoid_relu_gelu(self, rng):
        a = rng.uniform(-0.5, 0.5, (3, 3)) + 0.1  # keep relu away from its kink
        check_vjp(lambda x: x.tanh(), [a])
        check_vjp(lambda x: x.sigmoid(), [a])
        check_vjp(lambda x: x.relu(), [a])
        check_vjp(lambda x: x.gelu(), [a])

    def test_sigmoid_value_is_the_shared_logistic(self):
        z = np.linspace(-40.0, 40.0, 81)
        expected = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_array_equal(logistic(z), expected)
        np.testing.assert_array_equal(Tensor(z).sigmoid().numpy(), expected)
        assert logistic(np.array(0.0)) == 0.5


GELU_A = 0.044715
GELU_C = np.sqrt(2.0 / np.pi)


class TestGeluClosedForm:
    """The in-place GELU against 0.5 x (1 + tanh(c (x + a x^3))) and its derivative.

    Besides rtol, atol 1e-14 admits last-bit differences in tanh: near
    t = -1 one ulp of t is a large relative change of 1 + t, but moves
    the value and the derivative by about 1e-15 at most.
    """

    @pytest.mark.parametrize("x", [
        np.append(np.linspace(-20.0, 20.0, 4001), 0.0),
        np.zeros(1),
        np.array([-1.3]),
        RngStream(3).uniform(-20.0, 20.0, (3, 4, 5)),
    ], ids=["grid", "zero", "one", "3x4x5"])
    def test_value_and_derivative(self, x):
        t = parameter(x)
        y = t.gelu()
        y.backward(np.ones_like(x))
        tanh = np.tanh(GELU_C * (x + GELU_A * x ** 3))
        value = 0.5 * x * (1.0 + tanh)
        slope = (0.5 * (1.0 + tanh)
                 + 0.5 * x * (1.0 - tanh ** 2) * GELU_C * (1.0 + 3.0 * GELU_A * x ** 2))
        assert y.shape == x.shape and t.grad.shape == x.shape
        np.testing.assert_allclose(y.data, value, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(t.grad, slope, rtol=1e-12, atol=1e-14)



def whole_array_gelu(x, grad):
    """GELU's value and gradient as one in-place pass over the whole array
    per step, the order the blocked kernel keeps for every element."""
    x = np.atleast_1d(x)
    t = x * x
    t *= GELU_A
    t += 1.0
    t *= x
    t *= GELU_C
    np.tanh(t, out=t)
    value = t + 1.0
    value *= x
    value *= 0.5
    local = x * x
    local *= 3.0 * GELU_A
    local += 1.0
    local *= GELU_C
    local *= x
    local *= 0.5
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    local *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    local += tmp
    local *= np.atleast_1d(grad)
    return value, local


def leaf(array):
    """A trainable tensor over `array` itself, views and strides included
    (parameter() would copy it)."""
    t = Tensor(array)
    t.requires_grad = True
    return t


class TestGeluBlocks:
    """Blocked GELU against whole-array passes, bit for bit, across block edges."""

    def check(self, x):
        grad = RngStream(7).uniform(-1.0, 1.0, x.shape)
        t = leaf(x)
        y = t.gelu()
        y.backward(grad)
        value, local = whole_array_gelu(x, grad)
        assert_same_bits(y.data, value.reshape(x.shape))
        assert_same_bits(t.grad, local.reshape(x.shape))

    @pytest.mark.parametrize("size", [1, 7, GELU_BLOCK - 1, GELU_BLOCK, GELU_BLOCK + 1,
                                      3 * GELU_BLOCK + 5])
    def test_sizes_around_the_block(self, size):
        self.check(RngStream(size).uniform(-8.0, 8.0, size))

    def test_view_that_starts_one_element_in(self):
        self.check(RngStream(1).uniform(-8.0, 8.0, GELU_BLOCK + 9)[1:])

    def test_transposed_input(self):
        self.check(RngStream(2).uniform(-8.0, 8.0, (301, 257)).T)

    def test_zero_dimensional_input(self):
        self.check(np.array(-1.7))

    def test_backward_holds_one_gradient_and_a_block_of_scratch(self):
        """The peak of backward() is its gradient plus block temporaries, not
        full-size intermediates beside the gradient."""
        t = leaf(RngStream(4).uniform(-8.0, 8.0, (64, 4096)))
        y = t.gelu()
        grad = np.ones(y.shape)
        tracemalloc.start()
        try:
            y.backward(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (t.size + 2 * GELU_BLOCK) + 64 * 1024
        assert peak < bound, (peak, bound)


class TestMatmulGrads:
    def test_plain_matmul(self, rng):
        a = rng.uniform(-0.5, 0.5, (3, 4))
        b = rng.uniform(-0.5, 0.5, (4, 2))
        check_vjp(lambda x, y: x @ y, [a, b])

    def test_batched_matmul_with_broadcast(self, rng):
        a = rng.uniform(-0.5, 0.5, (2, 3, 4))
        b = rng.uniform(-0.5, 0.5, (4, 5))
        check_vjp(lambda x, y: x @ y, [a, b])

    def test_four_dim_batched(self, rng):
        a = rng.uniform(-0.5, 0.5, (2, 2, 3, 4))
        b = rng.uniform(-0.5, 0.5, (2, 2, 4, 3))
        check_vjp(lambda x, y: x @ y, [a, b])


class TestShapeGrads:
    def test_reshape_transpose_slice(self, rng):
        a = rng.uniform(-0.5, 0.5, (4, 6))
        check_vjp(lambda x: x.reshape(2, 12).transpose(1, 0), [a])
        check_vjp(lambda x: x.reshape(2, 2, 3, 2).transpose(0, 2, 1, 3), [a])
        check_vjp(lambda x: x[:, 2:5], [a])
        check_vjp(lambda x: x.reshape(2, 2, 3, 2).transpose(0, 1, 3, 2), [a])

    def test_indexing_by_ids_accumulates_duplicates(self, rng):
        table = rng.uniform(-0.5, 0.5, (5, 3))
        ids = np.array([[0, 2], [2, 4]])
        check_vjp(lambda t: t[ids], [table])
        t = parameter(table)
        t[ids].backward(np.ones((2, 2, 3)))
        np.testing.assert_array_equal(t.grad[:, 0], [1.0, 0.0, 2.0, 0.0, 1.0])

    def test_indexing_by_row_and_position_pairs(self, rng):
        states = rng.uniform(-0.5, 0.5, (2, 4, 3))
        rows, positions = np.array([0, 1, 1, 0]), np.array([1, 3, 3, 2])
        check_vjp(lambda t: t[rows, positions], [states])


class TestFusedGrads:
    def test_softmax_rows_normalized(self, rng):
        logits = rng.uniform(-2.0, 2.0, (6, 5))
        probs = softmax(Tensor(logits)).numpy()
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(6), atol=1e-9)

    def test_softmax_uniform_on_equal_logits(self):
        probs = softmax(Tensor(np.zeros((1, 3)))).numpy()
        np.testing.assert_allclose(probs, np.full((1, 3), 1.0 / 3.0), atol=1e-12)

    def test_softmax_stable_under_large_shift(self):
        shifted = softmax(Tensor(np.array([[1000.0, 1001.0, 1002.0]]))).numpy()
        plain = softmax(Tensor(np.array([[0.0, 1.0, 2.0]]))).numpy()
        np.testing.assert_allclose(shifted, plain, atol=1e-12)

    def test_softmax_matches_numpy_over_the_last_axis(self, rng):
        logits = rng.uniform(-2.0, 2.0, (2, 3, 4))
        e = np.exp(logits)
        expected = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(softmax(Tensor(logits)).numpy(), expected, atol=1e-12)

    def test_softmax_grad(self, rng):
        logits = rng.uniform(-1.0, 1.0, (2, 3, 4))
        check_vjp(softmax, [logits])

    def test_layer_norm_grad(self, rng):
        x = rng.uniform(-0.5, 0.5, (2, 3, 4))
        gain = rng.uniform(0.5, 1.5, (4,))
        bias = rng.uniform(-0.5, 0.5, (4,))
        check_vjp(layer_norm, [x, gain, bias])

    def test_layer_norm_backward_has_the_bits_of_the_plain_composition(self, rng):
        """Backward reuses one scratch array; its gradients are the bits of
        the composition that forms each product as a new array."""
        data = rng.uniform(-3.0, 3.0, (6, 5, 16))
        x, gain, bias = (parameter(a) for a in (data, rng.uniform(0.5, 1.5, (16,)),
                                                 rng.uniform(-0.5, 0.5, (16,))))
        grad = rng.normal(0.0, 1.0, data.shape)
        layer_norm(x, gain, bias).backward(grad)
        xhat = data - data.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-5)
        xhat *= inv
        dxhat = grad * gain.data
        proj = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dxhat -= dxhat.mean(axis=-1, keepdims=True)
        dxhat -= xhat * proj
        dxhat *= inv
        assert_same_bits(gain.grad, (grad * xhat).sum(axis=0).sum(axis=0))
        assert_same_bits(bias.grad, grad.sum(axis=0).sum(axis=0))
        assert_same_bits(x.grad, dxhat)

    def test_layer_norm_gain_as_large_as_x_keeps_its_gradient(self, rng):
        data = rng.uniform(-0.5, 0.5, (3, 4))
        check_vjp(layer_norm, [data, rng.uniform(0.5, 1.5, (3, 4)),
                               rng.uniform(-0.5, 0.5, (4,))])

    def test_layer_norm_of_a_constant_gives_only_gain_and_bias_gradients(self, rng):
        arrays = [rng.uniform(-0.5, 0.5, (3, 4)), rng.uniform(0.5, 1.5, (4,)),
                  rng.uniform(-0.5, 0.5, (4,))]
        cotangent = rng.normal(0.0, 1.0, (3, 4))
        x, gain, bias = (parameter(a) for a in arrays)
        layer_norm(x, gain, bias).backward(cotangent)
        const, const_gain, const_bias = Tensor(arrays[0]), parameter(arrays[1]), parameter(arrays[2])
        layer_norm(const, const_gain, const_bias).backward(cotangent)
        assert const.grad is None
        assert_same_bits(const_gain.grad, gain.grad)
        assert_same_bits(const_bias.grad, bias.grad)

    def test_layer_norm_output_standardized(self, rng):
        x = Tensor(rng.uniform(-3.0, 3.0, (5, 8)))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-3)

    def test_cross_entropy_matches_hand_nll(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        loss = cross_entropy(Tensor(logits), np.array([0, 1])).item()
        expected = -(np.log(0.7) + np.log(0.8)) / 2.0
        np.testing.assert_allclose(loss, expected, atol=1e-12)

    def test_cross_entropy_grad(self, rng):
        logits = rng.uniform(-1.0, 1.0, (4, 5))
        targets = np.array([0, 2, 4, 1])
        check_vjp(lambda x: cross_entropy(x, targets), [logits])

    def test_cross_entropy_averages_over_every_leading_position(self, rng):
        logits = rng.uniform(-1.0, 1.0, (2, 3, 5))
        targets = np.array([[0, 4, 2], [1, 1, 3]])
        log_p = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(log_p, targets[..., None], axis=-1)
        loss = cross_entropy(Tensor(logits), targets).item()
        np.testing.assert_allclose(loss, -picked.mean(), atol=1e-12)

    def test_mse_loss_values_and_grad(self, rng):
        np.testing.assert_allclose(
            mse_loss(Tensor(np.array([3.0])), np.array([5.0])).item(), 4.0
        )
        np.testing.assert_allclose(
            mse_loss(Tensor(np.array([1.0, 2.0])), np.array([1.0, 2.0])).item(), 0.0
        )
        pred = rng.uniform(-1.0, 1.0, (6,))
        target = rng.uniform(-1.0, 1.0, (6,))
        check_vjp(lambda p: mse_loss(p, target), [pred])


def padded_key_bias(seq_len, lengths):
    """The encoder's additive attention bias: -1e9 on keys past each length."""
    real = np.arange(seq_len)[None, :] < np.asarray(lengths)[:, None]
    return (1.0 - real)[:, None, None, :] * -1e9


class TestFusedAffineAndScores:
    """`linear` and `attention_scores` are single nodes with the gradients,
    and the bits, of the compositions they replace."""

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
    def test_linear_grad(self, rng, x_shape):
        arrays = [rng.uniform(-0.5, 0.5, x_shape), rng.uniform(-0.5, 0.5, (4, 5)),
                  rng.uniform(-0.5, 0.5, (5,))]
        check_vjp(linear, arrays)

    def test_attention_scores_grad_under_a_padded_key_mask(self, rng):
        q = rng.uniform(-0.5, 0.5, (2, 2, 3, 4))
        k = rng.uniform(-0.5, 0.5, (2, 2, 3, 4))
        mask = padded_key_bias(3, [3, 2])
        # through the softmax, so the -1e9 entries do not swamp the differences
        check_vjp(lambda a, b: softmax(attention_scores(a, b, 0.5, mask)), [q, k])

    @staticmethod
    def run(f, arrays, cotangent_seed=7):
        leaves = [parameter(a) for a in arrays]
        out = f(*leaves)
        out.backward(RngStream(cotangent_seed).uniform(-1.0, 1.0, out.shape))
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("x_shape", [(6, 8), (3, 6, 8)])
    def test_linear_matches_the_unfused_composition_bitwise(self, rng, x_shape):
        # the composition is the 2-D one: every rank runs as one GEMM over
        # x's rows, which numpy's batched x @ w does not
        arrays = [rng.normal(0.0, 1.0, x_shape), rng.normal(0.0, 1.0, (8, 5)),
                  rng.normal(0.0, 1.0, (5,))]
        fused, fused_grads = self.run(linear, arrays)
        plain, plain_grads = self.run(
            lambda x, w, b: (x.reshape(-1, 8) @ w + b).reshape(*x_shape[:-1], 5), arrays)
        assert_same_bits(fused, plain)
        for got, want in zip(fused_grads, plain_grads):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("x_shape", [(4, 9, 16), (2, 3, 7, 16)])
    def test_linear_matches_the_batched_composition_to_rounding(self, rng, x_shape):
        # numpy's batched x @ w runs one GEMM per leading index and sums
        # the weight gradient's stack, so only rounding may differ. The
        # bound is relative to each array's largest entry: an entry that
        # cancels to near zero can differ by far more than 1e-12 of itself
        arrays = [rng.normal(0.0, 1.0, x_shape), rng.normal(0.0, 1.0, (16, 12)),
                  rng.normal(0.0, 1.0, (12,))]
        fused, fused_grads = self.run(linear, arrays)
        plain, plain_grads = self.run(lambda x, w, b: x @ w + b, arrays)
        for got, want in zip([fused, *fused_grads], [plain, *plain_grads]):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_attention_scores_match_the_unfused_composition_bitwise(self, rng):
        q = rng.normal(0.0, 1.0, (3, 2, 5, 4))
        k = rng.normal(0.0, 1.0, (3, 2, 5, 4))
        mask = padded_key_bias(5, [5, 3, 1])
        scale = 1.0 / np.sqrt(4)
        fused, fused_grads = self.run(lambda a, b: attention_scores(a, b, scale, mask), [q, k])
        plain, plain_grads = self.run(
            lambda a, b: a @ b.transpose(0, 1, 3, 2) * scale + Tensor(mask), [q, k])
        assert_same_bits(fused, plain)
        for got, want in zip(fused_grads, plain_grads):
            assert_same_bits(got, want)

    def test_backward_saves_no_array_besides_its_inputs(self, rng):
        x, x3, w, b = (parameter(rng.uniform(-1.0, 1.0, shape))
                       for shape in [(2, 3), (2, 5, 3), (3, 4), (4,)])
        q, k = (parameter(rng.uniform(-1.0, 1.0, (1, 2, 3, 4))) for _ in range(2))
        for out in (linear(x, w, b), linear(x3, w, b),
                    attention_scores(q, k, 0.5, padded_key_bias(3, [2]))):
            saved = [cell.cell_contents for cell in out._backward.__closure__]
            assert not any(isinstance(value, np.ndarray) for value in saved), saved


def saved_arrays(out):
    """The arrays a node's backward closure keeps, besides its parents."""
    return [cell.cell_contents for cell in out._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]


class TestResidualLayerNorm:
    """`residual_layer_norm` is one node with the value, gradients, bits and
    draws of layer_norm(x + dropout(linear(h, w, b), rate, rng), gain, bias)."""

    @staticmethod
    def arrays(rng):
        return [rng.normal(0.0, 1.0, (3, 5, 8)), rng.normal(0.0, 1.0, (3, 5, 12)),
                rng.normal(0.0, 0.5, (12, 8)), rng.normal(0.0, 0.5, (8,)),
                rng.uniform(0.5, 1.5, (8,)), rng.uniform(-0.5, 0.5, (8,))]

    @staticmethod
    def composition(x, h, w, b, gain, bias, rate, rng):
        return layer_norm(x + dropout(linear(h, w, b), rate, rng), gain, bias)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_grad_check(self, rng, rate):
        names = ["x", "h", "w", "b", "gain", "bias"]
        params = dict(zip(names, (parameter(a) for a in self.arrays(rng))))
        target = rng.normal(0.0, 1.0, (3, 5, 8))
        # a fresh stream per call, so every evaluation drops the same entries
        report = grad_check(
            lambda: mse_loss(residual_layer_norm(*params.values(), rate, RngStream(4)), target),
            params)
        assert report.max_rel_error < 1e-6, str(report)

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_value_gradients_and_draws_are_the_compositions_bits(self, rng, rate):
        arrays = self.arrays(rng)
        cotangent = rng.normal(0.0, 1.0, (3, 5, 8))
        runs = []
        for f in (residual_layer_norm, self.composition):
            leaves = [parameter(a) for a in arrays]
            stream = RngStream(11)
            out = f(*leaves, rate, stream)
            out.backward(cotangent)
            runs.append((out.data, [leaf.grad for leaf in leaves], stream.random(4)))
        (fused, fused_grads, fused_next), (plain, plain_grads, plain_next) = runs
        assert_same_bits(fused, plain)
        for got, want in zip(fused_grads, plain_grads):
            assert_same_bits(got, want)
        assert_same_bits(fused_next, plain_next)

    def test_no_grad_value_at_rate_zero_is_the_compositions_bits(self, rng):
        arrays = [Tensor(a) for a in self.arrays(rng)]
        streams = [RngStream(12), RngStream(12)]
        with no_grad():
            fused = residual_layer_norm(*arrays, 0.0, streams[0])
            plain = self.composition(*arrays, 0.0, streams[1])
        assert not fused.requires_grad
        assert_same_bits(fused.data, plain.data)
        assert_same_bits(streams[0].random(4), streams[1].random(4))

    def test_backward_saves_xhat_inv_and_a_bool_mask(self, rng):
        leaves = [parameter(a) for a in self.arrays(rng)]
        out = residual_layer_norm(*leaves, 0.1, RngStream(2))
        saved = sorted((a.dtype.str, a.shape) for a in saved_arrays(out))
        # keep, xhat and the inverse deviation
        assert saved == sorted([("|b1", (3, 5, 8)), ("<f8", (3, 5, 8)), ("<f8", (3, 5, 1))])

    @pytest.mark.parametrize("rate", [1.0, -0.5])
    def test_invalid_rate_rejected(self, rng, rate):
        with pytest.raises(ValueError, match="dropout rate"):
            residual_layer_norm(*[Tensor(a) for a in self.arrays(rng)], rate, rng)


class TestEmbed:
    """`embed` is one node with the value, gradients and bits of
    token[ids] + position[:seq] + segment[segment_ids]."""

    IDS = np.array([[1, 4, 4, 0], [2, 1, 5, 5]])  # repeats within and across rows
    SEGMENTS = np.array([[0, 0, 1, 1], [0, 1, 1, 1]])

    @staticmethod
    def tables(rng):
        return [rng.normal(0.0, 1.0, (6, 3)), rng.normal(0.0, 1.0, (7, 3)),
                rng.normal(0.0, 1.0, (2, 3))]

    def fused(self, token, position, segment):
        return embed(token, self.IDS, position, segment, self.SEGMENTS)

    def composition(self, token, position, segment):
        return token[self.IDS] + position[:4] + segment[self.SEGMENTS]

    def test_grad_check(self, rng):
        params = dict(zip(["token", "position", "segment"],
                          (parameter(a) for a in self.tables(rng))))
        target = rng.normal(0.0, 1.0, (2, 4, 3))
        report = grad_check(lambda: mse_loss(self.fused(*params.values()), target), params)
        assert report.max_rel_error < 1e-6, str(report)

    def test_value_and_gradients_are_the_compositions_bits(self, rng):
        tables = self.tables(rng)
        cotangent = rng.normal(0.0, 1.0, (2, 4, 3))
        runs = []
        for f in (self.fused, self.composition):
            leaves = [parameter(a) for a in tables]
            out = f(*leaves)
            out.backward(cotangent)
            runs.append((out.data, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (plain, plain_grads) = runs
        assert_same_bits(fused, plain)
        for got, want in zip(fused_grads, plain_grads):
            assert_same_bits(got, want)
        with no_grad():
            assert_same_bits(self.fused(*map(Tensor, tables)).data,
                             self.composition(*map(Tensor, tables)).data)

    def test_backward_saves_only_the_ids(self, rng):
        out = self.fused(*(parameter(a) for a in self.tables(rng)))
        assert all(np.issubdtype(a.dtype, np.integer) for a in saved_arrays(out))


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = Tensor(rng.uniform(-1.0, 1.0, (4, 4)))
        assert dropout(x, 0.0, rng) is x

    def test_kept_entries_scaled(self):
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, RngStream(7)).numpy()
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], np.full(kept.sum(), 1.0 / 0.75))
        assert abs(kept.mean() - 0.75) < 0.05

    def test_grad_flows_through_mask_only(self):
        x = parameter(np.ones((200,)))
        out = dropout(x, 0.5, RngStream(3))
        out.backward(np.ones(200))
        mask = out.numpy() != 0.0
        assert np.all(x.grad[~mask] == 0.0)
        np.testing.assert_allclose(x.grad[mask], np.full(mask.sum(), 2.0))

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_invalid_rate_rejected(self, rng, rate):
        # a negative rate is refused too, not taken for the identity
        with pytest.raises(ValueError, match="dropout rate"):
            dropout(Tensor(np.ones(3)), rate, rng)

    @pytest.mark.parametrize("shape", [(40, 30), (1,), (GELU_BLOCK - 1,), (GELU_BLOCK + 1,),
                                       (3 * GELU_BLOCK + 5,)])
    def test_mask_is_bool_and_gives_the_bits_of_a_float_mask(self, rng, shape):
        """The mask, drawn a block at a time, is the whole-array draw's, and
        the stream is left where the whole-array draw leaves it."""
        data = rng.normal(0.0, 1.0, shape)
        x = parameter(data)
        stream, whole = RngStream(8), RngStream(8)
        out = dropout(x, 0.3, stream)
        saved = [cell.cell_contents for cell in out._backward.__closure__
                 if isinstance(cell.cell_contents, np.ndarray)]
        assert [array.dtype for array in saved] == [np.dtype(bool)]
        keep = (whole.random(data.shape) >= 0.3).astype(np.float64)
        assert_same_bits(stream.random(3), whole.random(3))
        scale = 1.0 / 0.7
        assert_same_bits(out.data, data * keep * scale)
        cotangent = rng.normal(0.0, 1.0, data.shape)
        out.backward(cotangent)
        assert_same_bits(x.grad, cotangent * keep * scale)

    @pytest.mark.parametrize("shape", [(3, 7, 5), (3, 2, 7, 7)])
    def test_rows_take_the_full_draw_at_those_rows(self, rng, shape):
        """With `rows`, x holds some rows of axis -2 of a full sequence: the
        mask is the full-shape draw's at those rows, bitwise, and the stream
        is left where the full draw leaves it."""
        at = np.array([[0, 4, 4], [6, 1, 0], [2, 2, 2]])
        full = rng.normal(0.0, 1.0, shape)
        index = at.reshape((3,) + (1,) * (len(shape) - 3) + (3, 1))
        x = parameter(np.take_along_axis(full, index, axis=-2))
        stream, whole = RngStream(8), RngStream(8)
        out = dropout(x, 0.3, stream, (at, 7))
        reference = dropout(Tensor(full), 0.3, whole).numpy()
        assert_same_bits(out.numpy(), np.take_along_axis(reference, index, axis=-2))
        assert_same_bits(stream.random(3), whole.random(3))

    def test_no_float_array_of_uniforms_is_held(self):
        """The uniforms are drawn a block at a time: at each draw the bytes
        held are the bool mask and one block of doubles, where a whole-array
        draw would hold a float array as large as x. (The forward's peak is
        the same either way: the value array is that large too.)"""
        held = []

        class Spy(RngStream):
            def random(self, shape=None):
                draw = super().random(shape)
                held.append(tracemalloc.get_traced_memory()[0])
                return draw

        x = Tensor(RngStream(5).normal(0.0, 1.0, (64, 4096)))
        rng = Spy(6)
        tracemalloc.start()
        try:
            dropout(x, 0.1, rng)
        finally:
            tracemalloc.stop()
        bound = x.size + 8 * GELU_BLOCK + 64 * 1024
        assert len(held) == x.size // GELU_BLOCK and max(held) < bound, (held, bound)


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self):
        x = parameter(np.array([2.0]))
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, np.array([7.0]))

    def test_backward_requires_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_no_grad_builds_no_graph(self):
        x = parameter(np.ones(3))
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_windows_of_two_threads_stay_apart(self):
        """A enters, then B, then A leaves: B's window still records no
        graph, and after both leave every thread records graphs again."""
        x = parameter(np.ones(3))
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                assert b_in.wait(10)
                seen["a inside"] = (x * 2.0).requires_grad
            a_out.set()
            seen["a after"] = (x * 2.0).requires_grad

        def thread_b():
            assert a_in.wait(10)
            with no_grad():
                b_in.set()
                assert a_out.wait(10)
                seen["b inside after a left"] = (x * 2.0).requires_grad
            seen["b after"] = (x * 2.0).requires_grad

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == {"a inside": False, "a after": True,
                        "b inside after a left": False, "b after": True}
        assert (x * 2.0).requires_grad

    def test_thread_outside_a_window_records_a_graph(self):
        x = parameter(np.ones(3))
        inside, done = threading.Event(), threading.Event()

        def hold_a_window():
            with no_grad():
                inside.set()
                done.wait(10)

        holder = threading.Thread(target=hold_a_window)
        holder.start()
        try:
            assert inside.wait(10)
            y = x * 2.0
        finally:
            done.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert y.requires_grad
        assert x in y._parents

    def test_non_float_input_promoted(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.data.dtype, np.floating)

    def test_diamond_graph(self, rng):
        a = rng.uniform(-0.5, 0.5, (3,))
        check_vjp(lambda x: (x * 2.0) * (x + 1.0), [a])


class TestBackwardFreesTheGraph:
    """backward() releases interior nodes as it walks; leaves keep `.grad`."""

    @staticmethod
    def graph(rng):
        a = parameter(rng.uniform(-0.5, 0.5, (3, 4)))
        b = parameter(rng.uniform(-0.5, 0.5, (4, 2)))
        hidden = (a * a).tanh()
        root = mse_loss(hidden @ b, np.zeros((3, 2)))
        return a, b, hidden, root

    def test_interior_nodes_are_released_and_leaves_keep_grads(self, rng):
        a, b, hidden, root = self.graph(rng)
        root.backward()
        for node in (hidden, root):
            assert node.grad is None
            assert node._backward is None
            assert node._parents == ()
        assert hidden.shape == (3, 4)  # the value itself stays readable
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        assert np.any(a.grad != 0.0) and np.any(b.grad != 0.0)

    def test_second_backward_on_a_spent_root_reaches_no_leaf(self, rng):
        a, b, hidden, root = self.graph(rng)
        root.backward()
        kept = [a.grad.copy(), b.grad.copy()]
        root.backward()
        np.testing.assert_array_equal(a.grad, kept[0])
        np.testing.assert_array_equal(b.grad, kept[1])

    @pytest.mark.parametrize("b_shape, seed, shown", [
        ((3, 4), np.float64(5.0), r"\(\)"),  # unchecked, a scalar broadcasts silently
        ((4,), np.ones(4), r"\(4,\)"),  # unchecked, this fails deep inside unbroadcast
    ])
    def test_seed_of_another_shape_is_rejected(self, rng, b_shape, seed, shown):
        a = parameter(rng.uniform(-0.5, 0.5, (3, 4)))
        b = parameter(rng.uniform(-0.5, 0.5, b_shape))
        with pytest.raises(ValueError, match=rf"seed has shape {shown}, expected \(3, 4\)"):
            (a * b).backward(seed)
        assert a.grad is None and b.grad is None
