"""Layers, Adam, the grad-check harness, checkpoints, and rng streams."""

import json
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
    derive_seed,
    flatten_parameters,
    grad_check,
    load_checkpoint,
    mse_loss,
    parameter,
    save_checkpoint,
    verify_manifest,
)


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


class TestLSTM:
    def test_zero_weights_zero_state_stay_zero(self, rng):
        cell = LSTM(rng, 3, 4)
        for p in cell.parameters().values():
            p.data[:] = 0.0
        h, c = cell.step(
            Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))
        )
        np.testing.assert_array_equal(h.numpy(), np.zeros((2, 4)))
        np.testing.assert_array_equal(c.numpy(), np.zeros((2, 4)))

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
            out = (w * Tensor(x)).sum()
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

    def test_manifest_lists_params_and_verifies(self, tmp_path, rng):
        params = {"w": parameter(rng.uniform(-0.5, 0.5, (2, 2)))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        manifest = (tmp_path / "model.ckpt.manifest.txt").read_text()
        assert "param: w shape=2x2 dtype=float64" in manifest
        assert verify_manifest(path)

    def test_tampering_breaks_manifest_check(self, tmp_path, rng):
        params = {"w": parameter(np.ones((2, 2)))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert not verify_manifest(path)

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
        dtype=st.sampled_from(["float64", "float32"]),
        sections=st.dictionaries(st.sampled_from(["vocab", "notes"]), st.text(max_size=12)),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_prefix_truncation_is_refused(self, shapes, dtype, sections):
        params = {
            f"p{i}": parameter(np.arange(float(np.prod(shape))).reshape(shape).astype(dtype))
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
        blob = path.read_bytes()
        (length,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + length])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length:])

    @pytest.mark.parametrize("edit", [
        lambda h: h["params"][0].update(dtype="int8"),
        lambda h: h["params"][0].update(shape=[10 ** 15]),
        lambda h: h["params"][0].update(shape="2x2"),
        lambda h: h["sections"].append({"name": "extra"}),
        lambda h: h.pop("meta"),
        lambda h: h.pop("params"),
        lambda h: h.update(format_version=2),
    ], ids=["unknown-dtype", "oversized-shape", "bad-shape", "bad-section", "no-meta",
            "no-params", "future-version"])
    def test_malformed_header_is_refused(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones((2, 2)))}, sections={"vocab": "a\n"})
        self._rewrite_header(path, edit)
        with pytest.raises(ValueError, match="model.ckpt"):
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

    def test_draw_counter_tracks_calls(self):
        s = RngStream(1)
        s.random((2,))
        s.integers(0, 5, (3,))
        assert s.draws == 2

    def test_children_are_stable_and_distinct(self):
        root = RngStream(7)
        again = RngStream(7)
        assert root.child("mask").seed == again.child("mask").seed
        assert root.child("mask").seed != root.child("shuffle").seed
        assert derive_seed(7, "mask") != derive_seed(8, "mask")

    def test_shuffle_is_a_permutation(self):
        items = list(range(15))
        s = RngStream(5)
        s.shuffle(items)
        assert sorted(items) == list(range(15))

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_reproducibility_across_instances(self, seed):
        first = RngStream(seed).uniform(0, 1, (5,))
        second = RngStream(seed).uniform(0, 1, (5,))
        np.testing.assert_array_equal(first, second)


class TestFlattenParameters:
    def test_nested_tree_gets_dotted_names(self, rng):
        tree = {
            "encoder": {"proj": Dense(rng, 2, 2)},
            "head": Dense(rng, 2, 1),
            "scale": parameter(np.ones(1)),
        }
        flat = flatten_parameters(tree)
        assert set(flat) == {
            "encoder.proj.weight",
            "encoder.proj.bias",
            "head.weight",
            "head.bias",
            "scale",
        }

    def test_unknown_leaf_rejected(self):
        with pytest.raises(TypeError):
            flatten_parameters({"x": 3})
