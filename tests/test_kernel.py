"""Layers, Adam, the grad-check harness, checkpoints, and rng streams."""

import contextlib
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
    clip_gradients,
    derive_seed,
    load_checkpoint,
    mse_loss,
    no_grad,
    parameter,
    save_checkpoint,
)
from storypointer.kernel.optim import BETA1, BETA2, EPS

from gradcheck import central_difference, grad_check


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
    it became one autograd node, over padded (batch, time, features) inputs
    and their (batch, time) mask; returns the final hidden states."""
    n = cell.n_hidden
    batch, steps, _ = x.shape
    h = Tensor(np.zeros((batch, n)))
    c = Tensor(np.zeros((batch, n)))
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
    return h


def scattered(rows, lengths):
    """Ragged LSTM input in the layout `reference_lstm` reads: each row's
    steps at the front of a zero (batch, longest, features) array, and the
    (batch, longest) mask of those steps."""
    lengths = np.asarray(lengths)
    mask = (np.arange(lengths.max(initial=0)) < lengths[:, None]) * 1.0
    x = np.zeros(mask.shape + rows.shape[1:])
    x[mask > 0] = rows
    return x, mask


# Mixed lengths: full, shorter, empty, one step.
MIXED_LENGTHS = np.array([5, 3, 0, 1])


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

    def test_final_state_is_the_state_at_each_rows_length(self, rng):
        cell = LSTM(rng, 3, 4)
        rows = rng.uniform(-0.5, 0.5, (MIXED_LENGTHS.sum(), 3))
        final = cell(Tensor(rows), MIXED_LENGTHS)
        # the reference carries each row's last state through its pads, and
        # the empty row keeps the zero initial state
        x, mask = scattered(rows, MIXED_LENGTHS)
        np.testing.assert_allclose(final.numpy(), reference_lstm(cell, Tensor(x), mask).numpy(),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(final.numpy()[2], np.zeros(4))

    @pytest.mark.parametrize("lengths", [MIXED_LENGTHS, [5, 5, 5, 5]], ids=["mixed", "equal"])
    def test_the_node_is_the_final_states_alone(self, rng, lengths):
        cell = LSTM(rng, 3, 4)
        x = Tensor(rng.uniform(-0.5, 0.5, (int(np.sum(lengths)), 3)))
        final = cell(x, lengths)
        assert isinstance(final, Tensor) and final.shape == (4, 4)
        assert final._parents == (x, cell.w_x, cell.w_h, cell.bias)

    def test_a_rows_final_state_does_not_depend_on_longer_rows_beside_it(self, rng):
        cell = LSTM(rng, 2, 3)
        rows = rng.uniform(-0.5, 0.5, (8, 2))
        beside = cell(Tensor(rows), [3, 5])
        alone = cell(Tensor(rows[:3]), [3])
        np.testing.assert_allclose(beside.numpy()[:1], alone.numpy(), atol=1e-12)

    def test_two_step_sequence_gradients_match_fd(self, rng):
        cell = LSTM(rng, 2, 3)
        x = rng.uniform(-0.5, 0.5, (2, 2, 2))
        target = rng.uniform(-0.5, 0.5, (2, 3))
        report = grad_check(
            lambda: mse_loss(cell(Tensor(x.reshape(4, 2)), [2, 2]), target),
            cell.parameters(),
        )
        assert report.max_rel_error < 1e-4

    def test_mixed_length_gradients_match_fd_also_on_the_inputs(self, rng):
        cell = LSTM(rng.child("cell"), 3, 4)
        cell.bias.data[:] = rng.uniform(-0.5, 0.5, cell.bias.shape)
        x = parameter(rng.uniform(-0.5, 0.5, (MIXED_LENGTHS.sum(), 3)))
        target = rng.uniform(-0.5, 0.5, (4, 4))
        report = grad_check(lambda: mse_loss(cell(x, MIXED_LENGTHS), target),
                            {**cell.parameters(), "x": x})
        assert report.max_rel_error < 1e-4
        assert np.abs(x.grad).min(axis=1).all()  # every row is a real step, so each gets a gradient

    @pytest.mark.parametrize("lengths", [
        [5, 3, 0, 1],         # MIXED_LENGTHS: full, shorter, empty, one step
        [2, 5, 2, 4, 5, 1],   # unsorted, with ties
        [3, 0, 5],            # an empty row
        [4, 4, 4],            # equal lengths
        [3],                  # a batch of one row
    ], ids=["mixed", "unsorted-ties", "empty-row", "equal", "one-row"])
    def test_fused_matches_stepwise_tensor_reference(self, rng, lengths):
        cell = LSTM(rng.child("cell"), 3, 4)
        cell.bias.data[:] = rng.uniform(-0.5, 0.5, cell.bias.shape)
        rows = rng.uniform(-1.0, 1.0, (sum(lengths), 3))
        x, mask = scattered(rows, lengths)
        target = rng.uniform(-0.5, 0.5, (len(lengths), 4))
        runs = []
        for forward, inputs in ((lambda x_: cell(x_, lengths), rows),
                                (lambda x_: reference_lstm(cell, x_, mask), x)):
            for p in cell.parameters().values():
                p.grad = None
            xt = parameter(inputs)
            final = forward(xt)
            mse_loss(final, target).backward()
            grads = {name: p.grad.copy() for name, p in cell.parameters().items()}
            runs.append((final.numpy().copy(), grads, xt.grad.copy()))
        (final, grads, dx), (ref_final, ref_grads, ref_dx) = runs
        # summation order differs (hoisted input GEMM, packed weight
        # gradients), so agreement is to a float64 tolerance, not bitwise
        tol = dict(rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(final, ref_final, **tol)
        for name in ref_grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], **tol)
        # the reference's pads get no gradient; its steps get the rows' own
        np.testing.assert_array_equal(ref_dx[mask == 0], 0.0)
        np.testing.assert_allclose(dx, ref_dx[mask > 0], **tol)

    def test_rows_all_of_length_zero_keep_zero_states_and_get_zero_gradients(self, rng):
        cell = LSTM(rng, 3, 4)
        x = parameter(np.zeros((0, 3)))
        final = cell(x, [0, 0, 0])
        np.testing.assert_array_equal(final.numpy(), np.zeros((3, 4)))
        mse_loss(final, rng.uniform(-0.5, 0.5, (3, 4))).backward()
        assert x.grad.shape == (0, 3)
        for name, p in cell.parameters().items():
            np.testing.assert_array_equal(p.grad, np.zeros(p.shape), err_msg=name)

    @pytest.mark.parametrize("lengths", [[2, 0, 4, 2, 1], [0, 0]], ids=["mixed", "all-empty"])
    @pytest.mark.parametrize("grad", [True, False], ids=["train", "inference"])
    def test_each_step_runs_only_the_rows_inside_their_length(self, rng, monkeypatch, grad,
                                                              lengths):
        cell = LSTM(rng, 3, 4)
        rows_per_step = []
        step = LSTM.step

        def spy(self, xw_t, h_prev, c_prev, acts, tanh_c):
            rows_per_step.append(len(xw_t))
            assert len(h_prev) == len(c_prev) == len(acts) == len(tanh_c) == len(xw_t)
            return step(self, xw_t, h_prev, c_prev, acts, tanh_c)

        monkeypatch.setattr(LSTM, "step", spy)
        with contextlib.nullcontext() if grad else no_grad():
            final = cell(Tensor(rng.uniform(-0.5, 0.5, (sum(lengths), 3))), lengths)
        assert final.requires_grad == grad
        # one step per time up to the longest row, each on the rows still running
        assert rows_per_step == [int(np.count_nonzero(np.array(lengths) > t))
                                 for t in range(max(lengths))]


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
        x = rng.uniform(-0.5, 0.5, (2, 3, 3))  # two rows of three steps
        target = rng.uniform(-0.5, 0.5, (2, 4))
        report = grad_check(lambda: mse_loss(cell(Tensor(x.reshape(6, 3)), [3, 3]), target),
                            cell.parameters())
        assert report.max_rel_error < 1e-4

    def test_sampling_coordinates_needs_an_rng(self, rng):
        w = parameter(rng.uniform(-0.5, 0.5, (3,)))
        with pytest.raises(ValueError, match="needs an rng"):
            grad_check(lambda: mse_loss(w, np.zeros(3)), {"w": w}, max_coords_per_param=2)
        report = grad_check(lambda: mse_loss(w, np.zeros(3)), {"w": w},
                            max_coords_per_param=2, rng=rng)
        assert report.coords_checked == 2

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
        slope = central_difference(lambda: float(p.data[0] ** 2), p.data, (0,), h=1e-5)
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


def rewrite_header(blob: bytes, edit) -> bytes:
    """The same container with `edit` applied to its JSON header, resealed
    with the sha256 of its new bytes so that only the edit is at fault."""
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + length])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:-32]
    return body + hashlib.sha256(body).digest()


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
        path.write_bytes(rewrite_header(path.read_bytes(), edit))
        with pytest.raises(ValueError, match="model.ckpt") as refused:
            load_checkpoint(path)
        assert "sha256" not in str(refused.value)  # refused for the header, not the digest

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_is_refused_at_save(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(2))})
        diverged = {"a": parameter(np.ones(2)), "w": parameter(np.array([1.0, bad]))}
        with pytest.raises(ValueError, match=r"^\S*model\.ckpt: parameter 'w' holds a non-finite value$"):
            save_checkpoint(path, diverged)
        loaded, _, _ = load_checkpoint(path)  # the previous checkpoint is untouched
        np.testing.assert_array_equal(loaded["w"].data, np.ones(2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_non_finite_parameter_is_refused_at_load_under_a_valid_digest(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": parameter(np.ones(2)), "w": parameter(np.ones(2))})
        blob = path.read_bytes()
        body = blob[:-48] + np.array([np.nan]).astype("<f8").tobytes() + blob[-40:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())  # resealed: only the value is bad
        with pytest.raises(ValueError, match=r"^\S*model\.ckpt: parameter 'w' holds a non-finite value$"):
            load_checkpoint(path)

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

