"""Autograd op tests against local finite-difference oracles.

The oracle here is deliberately independent of the kernel's own grad
check harness: plain central differences over numpy arrays, computed by
this module. Each op's vector-Jacobian product is checked by seeding
backward() with a fixed random cotangent w and differencing the scalar
sum(f(x) * w), formed in numpy.
"""

import numpy as np
import pytest

from storypointer.kernel import (
    RngStream,
    Tensor,
    cross_entropy,
    dropout,
    layer_norm,
    mse_loss,
    no_grad,
    parameter,
    softmax,
    take_rows,
)
from storypointer.kernel.tensor import logistic


def fd_grad(scalar_fn, array, h=1e-6):
    """Central-difference gradient of scalar_fn with respect to array.

    scalar_fn reads the array in place, so perturbing entries one at a
    time and re-evaluating gives the numeric gradient.
    """
    grad = np.zeros_like(array)
    for coord in np.ndindex(*array.shape):
        original = array[coord]
        array[coord] = original + h
        plus = scalar_fn()
        array[coord] = original - h
        minus = scalar_fn()
        array[coord] = original
        grad[coord] = (plus - minus) / (2.0 * h)
    return grad


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
        check_vjp(lambda x: x.swapaxes(0, 1), [a])

    def test_take_rows_accumulates_duplicates(self, rng):
        table = rng.uniform(-0.5, 0.5, (5, 3))
        ids = np.array([0, 2, 2, 4])
        check_vjp(lambda t: take_rows(t, ids), [table])


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

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, rng)


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

    def test_non_float_input_promoted(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

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
