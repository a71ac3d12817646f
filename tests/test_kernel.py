"""Layers, Adam, the grad-check harness, checkpoints, and rng streams."""

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storypointer.kernel import (
    LSTM,
    Adam,
    Dense,
    RngStream,
    Tensor,
    central_difference,
    clip_gradients,
    derive_seed,
    grad_check,
    load_checkpoint,
    mse_loss,
    parameter,
    save_checkpoint,
)
from storypointer.kernel.optim import BETA1, BETA2, EPS


@pytest.fixture
def rng():
    return RngStream(42)


class TestDense:
    def test_zero_weights_relu_gives_zero(self, rng):
        layer = Dense(rng, 4, 3, activation="relu")
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.numpy(), np.zeros((5, 3)))

    def test_identity_weights_pass_input_through(self, rng):
        layer = Dense(rng, 3, 3, activation="identity")
        layer.weight.data[:] = np.eye(3)
        layer.bias.data[:] = 0.0
        x = np.random.default_rng(1).normal(size=(2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), x)

    def test_shape_mismatch_raises(self, rng):
        layer = Dense(rng, 4, 2)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((3, 5))))

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(rng, 2, 2, activation="swish")

    def test_random_layer_gradients_match_fd(self, rng):
        layer = Dense(rng, 3, 2, activation="relu")
        x = rng.uniform(-0.5, 0.5, (4, 3))
        target = rng.uniform(-0.5, 0.5, (4, 2))
        report = grad_check(
            lambda: mse_loss(layer(Tensor(x)), target),
            layer.parameters(),
        )
        assert report.max_rel_error < 1e-4


def reference_lstm(cell, x, mask):
    """The cell composed step by step from Tensor ops, as the LSTM ran before
    it became one autograd node; returns (all hidden states, final hidden)."""
    n = cell.n_hidden
    batch, steps, _ = x.shape
    h = Tensor(np.zeros((batch, n)))
    c = Tensor(np.zeros((batch, n)))
    outputs = Tensor(np.zeros((batch, steps, n)))
    for t in range(steps):
        gates = x[:, t, :] @ cell.w_x + h @ cell.w_h + cell.bias
        i = gates[:, 0 * n:1 * n].sigmoid()
        f = gates[:, 1 * n:2 * n].sigmoid()
        g = gates[:, 2 * n:3 * n].tanh()
        o = gates[:, 3 * n:4 * n].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        m, keep = Tensor(mask[:, t:t + 1]), Tensor(1.0 - mask[:, t:t + 1])
        h = m * h_new + keep * h
        c = m * c_new + keep * c
        # placed at step t by a constant one-hot over the step axis
        one_hot = np.zeros((1, steps, 1))
        one_hot[0, t, 0] = 1.0
        outputs = outputs + h.reshape(batch, 1, n) * Tensor(one_hot)
    return outputs, h


# Mixed lengths: full, trailing pads, all pad, one real step, an interior pad.
MIXED_MASK = np.array([
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 1.0, 1.0, 0.0],
])


class TestLSTM:
    def test_zero_weights_zero_state_stay_zero(self, rng):
        cell = LSTM(rng, 3, 4)
        for p in cell.parameters().values():
            p.data[:] = 0.0
        projected = np.ones((2, 3)) @ cell.w_x.data + cell.bias.data
        h, c = cell.step(projected, np.zeros((2, 4)), np.zeros((2, 4)),
                         np.empty((2, 16)), np.empty((2, 4)))
        np.testing.assert_array_equal(h, np.zeros((2, 4)))
        np.testing.assert_array_equal(c, np.zeros((2, 4)))

    def test_masked_step_preserves_state(self, rng):
        cell = LSTM(rng, 3, 4)
        x = rng.uniform(-0.5, 0.5, (2, 3, 3))
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        outputs, _ = cell(Tensor(x), mask=mask)
        states = outputs.numpy()
        np.testing.assert_array_equal(states[0, 1], states[0, 0])
        np.testing.assert_array_equal(states[1, 2], states[1, 1])

    def test_trailing_pads_leave_final_state_fixed(self, rng):
        cell = LSTM(rng, 2, 3)
        x = rng.uniform(-0.5, 0.5, (1, 5, 2))
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        _, final_masked = cell(Tensor(x), mask=mask)
        _, final_short = cell(Tensor(x[:, :3, :]), mask=mask[:, :3])
        np.testing.assert_allclose(final_masked.numpy(), final_short.numpy(), atol=1e-12)

    def test_two_step_sequence_gradients_match_fd(self, rng):
        cell = LSTM(rng, 2, 3)
        x = rng.uniform(-0.5, 0.5, (2, 2, 2))
        target = rng.uniform(-0.5, 0.5, (2, 3))
        report = grad_check(
            lambda: mse_loss(cell(Tensor(x))[1], target),
            cell.parameters(),
        )
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("head", ["final", "all-steps"])
    def test_masked_mixed_length_gradients_match_fd(self, rng, head):
        cell = LSTM(rng.child("cell"), 3, 4)
        cell.bias.data[:] = rng.uniform(-0.5, 0.5, cell.bias.shape)
        x = parameter(rng.uniform(-0.5, 0.5, (5, 5, 3)))
        target = rng.uniform(-0.5, 0.5, (5, 5, 4) if head == "all-steps" else (5, 4))

        def loss():
            outputs, final = cell(x, mask=MIXED_MASK)
            return mse_loss(outputs if head == "all-steps" else final, target)

        report = grad_check(loss, {**cell.parameters(), "x": x})
        assert report.max_rel_error < 1e-4
        # the all-pad row never touches the state, so its inputs get no gradient
        np.testing.assert_array_equal(x.grad[2], np.zeros((5, 3)))

    def test_fused_matches_stepwise_tensor_reference(self, rng):
        cell = LSTM(rng.child("cell"), 3, 4)
        cell.bias.data[:] = rng.uniform(-0.5, 0.5, cell.bias.shape)
        x = rng.uniform(-1.0, 1.0, (5, 5, 3))
        target = rng.uniform(-0.5, 0.5, (5, 5, 4))
        final_target = rng.uniform(-0.5, 0.5, (5, 4))
        runs = []
        for forward in (cell, lambda x_, m: reference_lstm(cell, x_, m)):
            for p in cell.parameters().values():
                p.grad = None
            xt = parameter(x)
            outputs, final = forward(xt, MIXED_MASK)
            (mse_loss(outputs, target) + mse_loss(final, final_target)).backward()
            grads = {name: p.grad.copy() for name, p in cell.parameters().items()}
            runs.append((outputs.numpy().copy(), final.numpy().copy(), grads, xt.grad.copy()))
        (out, final, grads, dx), (ref_out, ref_final, ref_grads, ref_dx) = runs
        # summation order differs (hoisted input GEMM, stacked weight
        # gradients), so agreement is to a float64 tolerance, not bitwise
        tol = dict(rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(out, ref_out, **tol)
        np.testing.assert_allclose(final, ref_final, **tol)
        for name in ref_grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], **tol)
        np.testing.assert_allclose(dx, ref_dx, **tol)


class TestAdam:
    def test_zero_gradient_is_identity(self, rng):
        p = parameter(rng.uniform(-0.5, 0.5, (3, 3)))
        before = p.data.copy()
        opt = Adam({"p": p})
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_scalar_step_is_signed_learning_rate(self):
        for g in (0.7, -0.7):
            p = parameter(np.array(1.0))
            opt = Adam({"p": p}, lr=0.002)
            p.grad = np.array(g)
            opt.step()
            # bias correction makes the first step -lr * g/(|g| + eps)
            expected = 1.0 - 0.002 * np.sign(g)
            np.testing.assert_allclose(p.data, expected, atol=1e-8)

    def test_identical_states_give_identical_results(self, rng):
        runs = []
        for _ in range(2):
            p = parameter(np.arange(4, dtype=np.float64))
            opt = Adam({"p": p}, lr=0.01)
            for step in range(5):
                p.grad = np.sin(p.data + step)
                opt.step()
            runs.append(p.data.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_skips_params_without_grads(self, rng):
        p = parameter(np.ones(3))
        q = parameter(np.ones(3))
        opt = Adam({"p": p, "q": q})
        p.grad = np.ones(3)
        opt.step()
        np.testing.assert_array_equal(q.data, np.ones(3))
        assert not np.array_equal(p.data, np.ones(3))

    @given(st.integers(1, 6), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_zero_grad_identity_is_shape_independent(self, size, seed):
        stream = RngStream(seed)
        p = parameter(stream.uniform(-0.5, 0.5, (size,)))
        before = p.data.copy()
        opt = Adam({"p": p})
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, before)


    def test_in_place_moments_are_bitwise_the_out_of_place_formula(self, rng):
        p = parameter(rng.uniform(-0.5, 0.5, (4, 3)))
        data, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        opt = Adam({"p": p}, lr=0.01)
        b1, b2 = BETA1, BETA2
        for t in range(1, 6):
            g = rng.normal(0.0, 1.0, (4, 3))
            p.grad = g
            opt.step()
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1 ** t), v / (1.0 - b2 ** t)
            data = data - 0.01 * m_hat / (np.sqrt(v_hat) + EPS)
            np.testing.assert_array_equal(opt.m["p"], m)
            np.testing.assert_array_equal(opt.v["p"], v)
            np.testing.assert_array_equal(p.data, data)


class TestGradientAliasing:
    """`.grad` arrays may share one buffer; nothing may write through it."""

    @staticmethod
    def summed(rng, seed=None):
        a = parameter(rng.uniform(-0.5, 0.5, (3, 4)))
        b = parameter(rng.uniform(-0.5, 0.5, (3, 4)))
        (a + b).backward(np.ones((3, 4)) if seed is None else seed)
        assert np.shares_memory(a.grad, b.grad)  # the case under test
        return a, b

    def test_clipping_scales_each_grad_once(self, rng):
        a, b = self.summed(rng)
        total = clip_gradients([a, b], max_norm=1.0)
        assert total == pytest.approx(np.sqrt(24.0))
        scale = 1.0 / total
        np.testing.assert_array_equal(a.grad, np.full((3, 4), scale))
        np.testing.assert_array_equal(b.grad, np.full((3, 4), scale))

    def test_adam_leaves_grads_unchanged(self, rng):
        a, b = self.summed(rng)
        before = [a.grad.copy(), b.grad.copy()]
        opt = Adam({"a": a, "b": b})
        opt.step()
        opt.step()
        np.testing.assert_array_equal(a.grad, before[0])
        np.testing.assert_array_equal(b.grad, before[1])

    def test_backward_leaves_the_seed_unchanged(self, rng):
        seed = rng.normal(0.0, 1.0, (3, 4))
        kept = seed.copy()
        a, b = self.summed(rng, seed)
        clip_gradients([a, b], max_norm=1e-3)
        Adam({"a": a, "b": b}).step()
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_array_equal(a.grad, b.grad)


class TestGradCheckHarness:
    def test_dense_relu_fragment_passes(self, rng):
        layer = Dense(rng, 4, 2, activation="relu")
        x = rng.uniform(-0.5, 0.5, (3, 4))
        target = rng.uniform(-0.5, 0.5, (3, 2))
        report = grad_check(lambda: mse_loss(layer(Tensor(x)), target), layer.parameters())
        assert report.max_rel_error < 1e-4
        assert report.coords_checked == 4 * 2 + 2

    def test_three_step_lstm_fragment_passes(self, rng):
        cell = LSTM(rng, 3, 4)
        x = rng.uniform(-0.5, 0.5, (2, 3, 3))
        target = rng.uniform(-0.5, 0.5, (2, 4))
        report = grad_check(lambda: mse_loss(cell(Tensor(x))[1], target), cell.parameters())
        assert report.max_rel_error < 1e-4

    def test_corrupted_backward_is_detected(self, rng):
        w = parameter(rng.uniform(-0.5, 0.5, (3,)))
        x = rng.uniform(-0.5, 0.5, (3,))

        def broken_loss():
            out = mse_loss(w * Tensor(x), np.zeros(3))
            inner = out._backward
            # sabotage: double every gradient contribution
            out._backward = lambda grad: inner(2.0 * grad)
            return out

        report = grad_check(broken_loss, {"w": w})
        assert report.max_rel_error > 1e-2

    def test_central_difference_on_quadratic(self):
        p = parameter(np.array([3.0]))
        slope = central_difference(lambda: float(p.data[0] ** 2), p, (0,), h=1e-5)
        np.testing.assert_allclose(slope, 6.0, atol=1e-8)

    def test_coordinate_sampling_bounds_work(self, rng):
        layer = Dense(rng, 10, 10)
        x = rng.uniform(-0.5, 0.5, (2, 10))
        target = rng.uniform(-0.5, 0.5, (2, 10))
        report = grad_check(
            lambda: mse_loss(layer(Tensor(x)), target),
            layer.parameters(),
            max_coords_per_param=5,
            rng=rng,
        )
        assert report.coords_checked == 10


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path, rng):
        params = {
            "emb.table": parameter(rng.uniform(-0.5, 0.5, (7, 3))),
            "head.bias": parameter(rng.uniform(-0.5, 0.5, (3,))),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"seed": 42}, sections={"vocab": "a\nb\nc\n"})
        loaded, meta, sections = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
        assert meta == {"seed": 42}
        assert sections == {"vocab": "a\nb\nc\n"}

    def test_digest_seals_the_container_and_saves_are_deterministic(self, tmp_path, rng):
        params = {"w": parameter(rng.uniform(-0.5, 0.5, (2, 2)))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        first = path.read_bytes()
        assert first[-32:] == hashlib.sha256(first[:-32]).digest()
        (length,) = struct.unpack("<I", first[8:12])
        header = json.loads(first[12:12 + length])
        assert header["format_version"] == 2
        assert header["params"] == [{"name": "w", "shape": [2, 2], "dtype": "float64"}]
        load_checkpoint(path)  # the digest matches
        save_checkpoint(path, params)
        assert path.read_bytes() == first  # saving the same params again is byte-identical

    @pytest.mark.parametrize("offset", [-40, -1], ids=["parameter", "digest"])
    def test_changed_in_place_is_refused(self, tmp_path, offset):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones((2, 2)))})
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"model\.ckpt: sha256 .* does not match"):
            load_checkpoint(path)

    def test_overwrite_replaces_the_file_and_leaves_no_temporaries(self, tmp_path):
        path = tmp_path / "model.ckpt"
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        save_checkpoint(path, {"w": parameter(np.ones(3))})
        save_checkpoint(path, {"w": parameter(np.full(3, 2.0)), "v": parameter(np.ones(1))})
        loaded, _, _ = load_checkpoint(path)
        assert sorted(loaded) == ["v", "w"]
        np.testing.assert_array_equal(loaded["w"].data, np.full(3, 2.0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "notes.txt"]

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": parameter(np.ones(2)), "b": parameter(np.ones(3))})
        update = {"a": parameter(np.zeros(2)), "b": parameter(np.zeros(3))}
        real, calls = np.ascontiguousarray, []

        def fail_on_second_param(arr, dtype=None):
            calls.append(arr)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(arr, dtype=dtype)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_second_param)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, update)
        monkeypatch.undo()
        loaded, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["b"].data, np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_failed_rename_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(2))})

        def killed(src, dst):
            raise OSError("killed")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_checkpoint(path, {"w": parameter(np.zeros(2))})
        monkeypatch.undo()
        loaded, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"].data, np.ones(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_structural_errors_come_before_the_checksum(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="cut short"):
            load_checkpoint(path)
        path.write_bytes(blob + b"x")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_loaded_params_are_trainable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(2))})
        loaded, _, _ = load_checkpoint(path)
        assert loaded["w"].requires_grad

    @given(
        shapes=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3),
        sections=st.dictionaries(st.sampled_from(["vocab", "notes"]), st.text(max_size=12)),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_prefix_truncation_is_refused(self, shapes, sections):
        params = {
            f"p{i}": parameter(np.arange(float(np.prod(shape))).reshape(shape))
            for i, shape in enumerate(shapes)
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, params, meta={"kind": "test"}, sections=sections)
            blob = path.read_bytes()
            loaded, _, loaded_sections = load_checkpoint(path)
            assert set(loaded) == set(params) and loaded_sections == sections
            cut_path = Path(tmp) / "cut.ckpt"
            for cut in range(len(blob)):
                cut_path.write_bytes(blob[:cut])
                with pytest.raises(ValueError, match="cut.ckpt"):
                    load_checkpoint(cut_path)

    def _rewrite_header(self, path, edit):
        """Applies `edit` to the header and reseals the file with a fresh digest."""
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + length])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        body = blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())

    @pytest.mark.parametrize("edit", [
        lambda h: h["params"][0].update(dtype="int8"),
        lambda h: h["params"][0].update(dtype="float32"),
        lambda h: h["params"][0].update(shape=[10 ** 15]),
        lambda h: h["params"][0].update(shape="2x2"),
        lambda h: h["sections"].append({"name": "extra"}),
        lambda h: h.pop("meta"),
        lambda h: h.pop("params"),
        lambda h: h.update(format_version=3),
    ], ids=["unknown-dtype", "float32", "oversized-shape", "bad-shape", "bad-section", "no-meta",
            "no-params", "future-version"])
    def test_malformed_header_is_refused(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones((2, 2)))}, sections={"vocab": "a\n"})
        self._rewrite_header(path, edit)
        with pytest.raises(ValueError, match="model.ckpt") as refused:
            load_checkpoint(path)
        assert "sha256" not in str(refused.value)  # refused for the header, not the digest

    def test_trailing_bytes_are_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(2))})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(99)
        b = RngStream(99)
        np.testing.assert_array_equal(a.uniform(-1, 1, (10,)), b.uniform(-1, 1, (10,)))
        np.testing.assert_array_equal(a.permutation(20), b.permutation(20))

    def test_uniform_and_normal_draw_float64(self):
        s = RngStream(5)
        for draw in (s.uniform(-1.0, 1.0, (2, 3)), s.normal(0.0, 1.0, (4,))):
            assert draw.dtype == np.float64
        assert s.uniform(0.0, 1.0).shape == ()
        assert s.normal(0.0, 1.0).dtype == np.float64

    def test_children_are_stable_and_distinct(self):
        root = RngStream(7)
        again = RngStream(7)
        assert root.child("mask").seed == again.child("mask").seed
        assert root.child("mask").seed != root.child("shuffle").seed
        assert derive_seed(7, "mask") != derive_seed(8, "mask")

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_reproducibility_across_instances(self, seed):
        first = RngStream(seed).uniform(0, 1, (5,))
        second = RngStream(seed).uniform(0, 1, (5,))
        np.testing.assert_array_equal(first, second)

