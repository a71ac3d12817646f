"""Effort head contracts: sizing, clamping, training, persistence."""

import json
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from storypointer.corpus import BUCKETS, PAD_WORD, UNK_WORD, Vocabulary
from storypointer.estimator import (
    EstimatorModel,
    HeadConfig,
    TrainHistory,
    load_estimator,
    predict,
    save_estimator,
    train_estimator,
)
from storypointer.features import FeatureBatch, StaticFeaturizer
from storypointer.kernel import Tensor, mse_loss, softmax
from storypointer.kernel.checkpoint import config_from_meta
from storypointer.kernel.rng import RngStream
from storypointer.static_embed import StaticEmbeddingModel, StaticTrainConfig


def pooled_batch(vectors: np.ndarray) -> FeatureBatch:
    vectors = np.asarray(vectors, dtype=np.float64)
    return FeatureBatch(
        mode="pooled",
        vectors=vectors,
        mask=np.ones(vectors.shape[:1]),
        degenerate=np.zeros(len(vectors), dtype=bool),
    )


def sequence_batch(vectors: np.ndarray, mask: np.ndarray) -> FeatureBatch:
    """The sequence batch of padded (n, t, d) `vectors`: their rows under `mask`."""
    vectors, mask = np.asarray(vectors, dtype=np.float64), np.asarray(mask, dtype=np.float64)
    return FeatureBatch(
        mode="sequence",
        vectors=vectors[mask > 0],
        mask=mask,
        degenerate=~mask.any(axis=1),
    )


def toy_regression(n=24, dim=6, seed=0):
    """Pooled features with efforts that depend linearly on them."""
    rng = RngStream(seed).child("toy")
    vectors = rng.normal(0.0, 1.0, (n, dim))
    weights = np.linspace(0.5, 2.0, dim)
    efforts = np.clip(vectors @ weights + 10.0, 1.0, 100.0)
    return pooled_batch(vectors), efforts


class TestConfig:
    def test_default_hyperparameters(self):
        config = HeadConfig()
        assert config.lstm_hidden == 50
        assert config.dense_sizes == (50, 10)
        assert config.epochs == 20
        assert config.batch_size == 128
        assert config.patience == 5
        assert config.learning_rate == pytest.approx(0.002)

    @pytest.mark.parametrize("bad", [
        {"mode": "graph"},
        {"output": "poisson"},
        {"dense_sizes": (0, 10)},
        {"epochs": 0},
        {"patience": 30},
    ])
    def test_invalid_settings_are_rejected(self, bad):
        with pytest.raises(ValueError):
            HeadConfig(**bad)

    def test_roundtrips_through_json(self):
        config = HeadConfig(mode="pooled", output="softmax", dense_sizes=(12, 4))
        assert config_from_meta(HeadConfig, json.loads(json.dumps(asdict(config)))) == config


class TestArchitecture:
    def test_parameter_count_for_reference_shape(self):
        # Hand count: LSTM holds 100*200 + 50*200 + 200 weights, the two
        # dense layers 50*50+50 and 50*10+10, the linear head 10*1+1.
        model = EstimatorModel(HeadConfig(), input_dim=100)
        total = sum(t.data.size for t in model.parameters().values())
        assert total == 30200 + 2550 + 510 + 11

    def test_softmax_head_adds_nine_way_output(self):
        model = EstimatorModel(HeadConfig(output="softmax"), input_dim=100)
        total = sum(t.data.size for t in model.parameters().values())
        assert total == 30200 + 2550 + 510 + 99
        assert model.head.n_out == 9

    def test_parameters_carry_dotted_layer_names(self):
        model = EstimatorModel(HeadConfig(), input_dim=8)
        assert list(model.parameters()) == [
            "dense1.weight", "dense1.bias", "dense2.weight", "dense2.bias",
            "head.weight", "head.bias", "lstm.w_x", "lstm.w_h", "lstm.bias",
        ]
        assert model.parameters()["lstm.w_h"] is model.lstm.w_h

    def test_pooled_mode_drops_the_recurrent_block(self):
        model = EstimatorModel(HeadConfig(mode="pooled"), input_dim=32)
        assert model.lstm is None
        assert not any(name.startswith("lstm") for name in model.parameters())

    def test_same_seed_same_initialization(self):
        a = EstimatorModel(HeadConfig(seed=5), input_dim=12)
        b = EstimatorModel(HeadConfig(seed=5), input_dim=12)
        for name, tensor in a.parameters().items():
            np.testing.assert_array_equal(tensor.data, b.parameters()[name].data)

    def test_model_id_names_head_and_source(self):
        bare = EstimatorModel(HeadConfig(), input_dim=8)
        assert bare.model_id == "estimator-sequence-linear-on-raw"
        sourced = EstimatorModel(
            HeadConfig(mode="pooled", output="softmax"),
            input_dim=8,
            source={"model_id": "cbow-d8-seed0"},
        )
        assert sourced.model_id == "estimator-pooled-softmax-on-cbow-d8-seed0"

    def test_input_dimension_is_enforced(self):
        model = EstimatorModel(HeadConfig(mode="pooled"), input_dim=8)
        with pytest.raises(ValueError):
            model.forward(pooled_batch(np.zeros((3, 5))))
        with pytest.raises(ValueError):
            EstimatorModel(HeadConfig(), input_dim=0)

    @pytest.mark.parametrize("rows, mask", [
        (np.zeros((2, 3, 4)), np.ones((2, 3))),  # padded inputs, not rows
        (np.zeros((6, 5)), np.ones((2, 3))),     # rows of another dimension
        (np.zeros((5, 4)), np.ones((2, 3))),     # one row short of the mask's steps
        (np.zeros((6, 4)), np.ones(6)),          # a mask without a time axis
    ])
    def test_sequence_inputs_are_rows_at_the_input_dimension_one_per_real_step(self, rows,
                                                                                mask):
        model = EstimatorModel(HeadConfig(), input_dim=4)
        batch = FeatureBatch("sequence", rows, mask, np.zeros(len(mask), dtype=bool))
        with pytest.raises(ValueError, match=r"^sequence mode expects \(R, 4\) rows, one per "
                                             r"real step of an \(n, t\) mask, got rows"):
            model.forward(batch)

    def test_feature_mode_must_match(self):
        model = EstimatorModel(HeadConfig(mode="pooled"), input_dim=4)
        seq = sequence_batch(np.zeros((2, 3, 4)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            model.forward(seq)


class TestPrediction:
    def force_output(self, model, values):
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = np.asarray(values, dtype=np.float64)

    def test_linear_output_is_clamped_to_effort_range(self):
        model = EstimatorModel(HeadConfig(mode="pooled"), input_dim=4)
        batch = pooled_batch(np.zeros((3, 4)))
        for forced, effort in [(-3.2, 1.0), (6.0, 6.0), (250.0, 100.0)]:
            self.force_output(model, [forced])
            efforts = predict(model, batch)
            assert efforts.dtype == np.float64 and efforts.shape == (3,)
            np.testing.assert_allclose(efforts, effort, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.forward(batch).numpy(), forced, rtol=0, atol=1e-12)

    def test_softmax_efforts_are_buckets(self):
        model = EstimatorModel(HeadConfig(mode="pooled", output="softmax"), input_dim=4)
        efforts = predict(model, pooled_batch(np.random.default_rng(0).normal(size=(5, 4))))
        assert efforts.dtype == np.float64 and efforts.shape == (5,)
        assert set(efforts) <= set(BUCKETS)

    def test_uniform_logits_pick_the_smallest_bucket(self):
        model = EstimatorModel(HeadConfig(mode="pooled", output="softmax"), input_dim=4)
        self.force_output(model, np.zeros(9))
        np.testing.assert_array_equal(predict(model, pooled_batch(np.zeros((2, 4)))), [1.0, 1.0])

    def test_chosen_bucket_is_the_largest_logit(self):
        model = EstimatorModel(HeadConfig(mode="pooled", output="softmax"), input_dim=4)
        self.force_output(model, [0.0, 1.0, 0.5, 3.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(predict(model, pooled_batch(np.zeros((1, 4)))), [5.0])

    def test_softmax_effort_is_the_bucket_at_the_kernel_softmax_argmax(self):
        model = EstimatorModel(HeadConfig(mode="pooled", output="softmax"), input_dim=4)
        batch = pooled_batch(np.random.default_rng(1).normal(size=(40, 4)))
        logits = model.forward(batch).numpy()
        choice = np.argmax(softmax(Tensor(logits)).numpy(), axis=-1)
        expected = np.array([float(BUCKETS[c]) for c in choice])
        np.testing.assert_array_equal(predict(model, batch), expected)

    def test_padding_under_mask_does_not_change_sequence_output(self):
        model = EstimatorModel(HeadConfig(), input_dim=5)
        rng = np.random.default_rng(3)
        short = rng.normal(size=(2, 3, 5))
        padded = np.concatenate([short, rng.normal(size=(2, 4, 5))], axis=1)
        mask = np.zeros((2, 7))
        mask[:, :3] = 1.0
        a = model.forward(sequence_batch(short, np.ones((2, 3)))).numpy()
        b = model.forward(sequence_batch(padded, mask)).numpy()
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestSequenceRowsAndPads:
    """The LSTM sorts rows by length and runs no pad step; through the head,
    neither the row order nor extra pad columns may move a result."""

    LENGTHS = np.array([4, 0, 2, 5, 1, 2])  # unsorted, with a tie and an all-pad row

    def setup_method(self):
        rng = np.random.default_rng(5)
        config = HeadConfig(dense_sizes=(6, 3), lstm_hidden=5, seed=0)
        self.model = EstimatorModel(config, input_dim=3)
        self.model.head.bias.data[:] = 10.0  # keep predictions off the clamp
        self.mask = (np.arange(5) < self.LENGTHS[:, None]) * 1.0
        self.vectors = rng.normal(size=(6, 5, 3)) * self.mask[:, :, None]
        self.efforts = rng.uniform(1.0, 20.0, 6)
        self.batch = sequence_batch(self.vectors, self.mask)

    def test_predictions_do_not_depend_on_row_order(self):
        perm = np.array([3, 0, 5, 1, 4, 2])
        expected = predict(self.model, self.batch)
        assert len(set(expected)) == len(expected)
        np.testing.assert_allclose(predict(self.model, self.batch.select(perm)), expected[perm],
                                   rtol=0, atol=1e-12)

    def test_extra_pad_columns_do_not_change_predictions(self):
        padded = FeatureBatch("sequence", self.batch.vectors,
                              np.concatenate([self.mask, np.zeros((6, 7))], axis=1),
                              self.batch.degenerate)
        np.testing.assert_allclose(predict(self.model, padded), predict(self.model, self.batch),
                                   rtol=0, atol=1e-12)

    def test_a_prediction_has_the_same_bits_alone_and_beside_a_long_text(self):
        """The head pads each batch to its own longest text: beside a
        100-step text a row is padded to 100 steps, alone to its length,
        and its prediction does not move by a bit."""
        rng = np.random.default_rng(8)
        mask = np.zeros((len(self.LENGTHS) + 1, 100))
        mask[:-1, :5] = self.mask
        mask[-1] = 1.0
        batch = FeatureBatch("sequence", rng.normal(size=(int(mask.sum()), 3)), mask,
                             ~mask.any(axis=1))
        beside = predict(self.model, batch)
        for i in range(len(self.LENGTHS)):
            alone = predict(self.model, batch.select([i]))
            assert alone.tobytes() == beside[[i]].tobytes(), i

    def test_an_all_pad_row_changes_no_other_row(self):
        real = np.flatnonzero(self.LENGTHS)
        expected = predict(self.model, self.batch)
        np.testing.assert_allclose(predict(self.model, self.batch.select(real)), expected[real],
                                   rtol=0, atol=1e-12)
        # the all-pad row reads the zero initial state wherever it sits
        np.testing.assert_allclose(predict(self.model, self.batch.select([1])), expected[[1]],
                                   rtol=0, atol=1e-12)

    def test_training_gradients_do_not_depend_on_row_order(self):
        def gradients(rows):
            params = self.model.parameters()
            for p in params.values():
                p.grad = None
            picked = self.batch.select(rows)
            mse_loss(self.model.forward(picked).reshape(len(rows)), self.efforts[rows]).backward()
            return {name: p.grad.copy() for name, p in params.items()}

        ordered, permuted = gradients(np.arange(6)), gradients(np.array([3, 0, 5, 1, 4, 2]))
        for name, grad in ordered.items():
            assert np.abs(grad).max() > 0.0, name
            np.testing.assert_allclose(permuted[name], grad, rtol=0, atol=1e-12)


class TestSequenceMemory:
    def test_features_add_only_their_real_rows_to_the_peak_of_training(self):
        """E1 in one process: featurize 240 texts of 1 to 100 words, take
        a fit and a validation fold and train a head for an epoch. The
        features add to the peak of training on folds built beforehand their
        real rows twice (the corpus and its folds) and their masks, where
        padded copies would add the corpus padded to 100 steps twice."""
        d, n = 32, 240
        words = [f"zq{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(300)]
        vocab = Vocabulary([PAD_WORD, UNK_WORD, *words], (PAD_WORD, UNK_WORD),
                           {w: 1 for w in words})
        table = RngStream(3).normal(0.0, 1.0, (len(vocab), d))
        featurizer = StaticFeaturizer(StaticEmbeddingModel(
            vocab, table, np.zeros_like(table), StaticTrainConfig(dimension=d)))
        lengths = [(37 * i) % 100 + 1 for i in range(n)]
        texts = [" ".join(words[(i + 7 * t) % len(words)] for t in range(k))
                 for i, k in enumerate(lengths)]
        efforts = RngStream(4).uniform(1.0, 20.0, n)
        fit, val = np.arange(160), np.arange(160, n)

        def train(fit_batch, val_batch):
            model = EstimatorModel(HeadConfig(epochs=1, patience=1, seed=0), input_dim=d)
            train_estimator(model, fit_batch, efforts[fit], val_batch, efforts[val])

        def featurize_and_train():
            batch = featurizer.featurize(texts)  # held while its folds train, as in `train`
            train(batch.select(fit), batch.select(val))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        corpus = featurizer.featurize(texts)
        built = corpus.select(fit), corpus.select(val)
        alone = peak(lambda: train(*built))
        whole = peak(featurize_and_train)
        bound = 8 * (2 * sum(lengths) * d + 2 * n * max(lengths)) + 512 * 1024
        assert whole - alone < bound, (whole, alone, bound)


class TestTraining:
    def test_memorizes_a_small_pooled_set(self):
        batch, efforts = toy_regression(n=16, dim=6, seed=1)
        config = HeadConfig(
            mode="pooled", dense_sizes=(16, 8), epochs=200,
            patience=200, batch_size=16, learning_rate=0.02, seed=1,
        )
        model = EstimatorModel(config, input_dim=6)
        history = train_estimator(model, batch, efforts, batch, efforts)
        assert history.best_val_mae < 0.5

    def test_constant_targets_are_learned_quickly(self):
        rng = RngStream(7).child("x")
        batch = pooled_batch(rng.normal(0.0, 1.0, (20, 4)))
        efforts = np.full(20, 5.0)
        config = HeadConfig(mode="pooled", dense_sizes=(8, 4), epochs=120,
                            patience=120, batch_size=20, learning_rate=0.05, seed=0)
        model = EstimatorModel(config, input_dim=4)
        history = train_estimator(model, batch, efforts, batch, efforts)
        assert history.best_val_mae < 0.1

    def test_frozen_learning_stops_on_patience(self):
        batch, efforts = toy_regression(n=12, dim=4, seed=2)
        # a step of this rate is below every weight's last bit, so no step moves one
        config = HeadConfig(mode="pooled", dense_sizes=(6, 3), epochs=50,
                            patience=4, learning_rate=1e-300, seed=0)
        model = EstimatorModel(config, input_dim=4)
        history = train_estimator(model, batch, efforts, batch, efforts)
        assert history.stop_reason == "patience"
        assert len(history.val_mae) < 50

    def test_best_epoch_tracks_the_minimum_validation_mae(self):
        batch, efforts = toy_regression(n=20, dim=5, seed=3)
        config = HeadConfig(mode="pooled", dense_sizes=(10, 5), epochs=40,
                            patience=40, seed=2)
        model = EstimatorModel(config, input_dim=5)
        history = train_estimator(model, batch, efforts, batch, efforts)
        assert history.val_mae[history.best_epoch] == min(history.val_mae)
        assert history.best_val_mae == min(history.val_mae)

    def test_best_weights_are_restored_after_training(self):
        batch, efforts = toy_regression(n=20, dim=5, seed=4)
        config = HeadConfig(mode="pooled", dense_sizes=(10, 5), epochs=30,
                            patience=30, seed=2)
        model = EstimatorModel(config, input_dim=5)
        history = train_estimator(model, batch, efforts, batch, efforts)
        from storypointer.metrics import mae

        final = mae(efforts, predict(model, batch))
        assert final == pytest.approx(history.best_val_mae, abs=1e-9)

    def test_training_is_deterministic(self):
        batch, efforts = toy_regression(n=18, dim=4, seed=5)
        config = HeadConfig(mode="pooled", dense_sizes=(8, 4), epochs=15,
                            patience=15, seed=9)
        runs = []
        for _ in range(2):
            model = EstimatorModel(config, input_dim=4)
            train_estimator(model, batch, efforts, batch, efforts)
            runs.append(predict(model, batch))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_sequence_head_trains_on_variable_lengths(self):
        rng = RngStream(11).child("seq")
        vectors = rng.normal(0.0, 1.0, (12, 4, 3))
        mask = np.ones((12, 4))
        mask[:6, 2:] = 0.0  # half the set is genuinely shorter
        efforts = 1.0 + 3.0 * np.abs(vectors[:, 0, 0])
        batch = sequence_batch(vectors, mask)
        config = HeadConfig(dense_sizes=(6, 3), lstm_hidden=5, epochs=8,
                            patience=8, batch_size=6, seed=0)
        model = EstimatorModel(config, input_dim=3)
        history = train_estimator(model, batch, efforts, batch, efforts)
        assert len(history.train_loss) == len(history.val_mae)
        assert np.isfinite(history.train_loss).all()

    def test_diverging_training_is_refused_naming_the_epoch(self):
        batch, efforts = toy_regression(n=12, dim=4, seed=6)
        huge = pooled_batch(batch.vectors * 1e200)
        config = HeadConfig(mode="pooled", dense_sizes=(6, 3), epochs=3, patience=3, seed=0)
        model = EstimatorModel(config, input_dim=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^head training diverged: .* after epoch 1$"):
                train_estimator(model, huge, efforts, huge, efforts)
        assert [str(w.message) for w in caught] == []  # numpy's overflow warnings are silenced

    def test_empty_sets_are_rejected(self):
        batch, efforts = toy_regression(n=4, dim=3)
        empty = batch.select([])
        config = HeadConfig(mode="pooled", dense_sizes=(4, 2))
        model = EstimatorModel(config, input_dim=3)
        with pytest.raises(ValueError):
            train_estimator(model, empty, efforts[:0], batch, efforts)
        with pytest.raises(ValueError):
            train_estimator(model, batch, efforts[:2], batch, efforts)


class TestPersistence:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        batch, efforts = toy_regression(n=10, dim=4, seed=6)
        config = HeadConfig(mode="pooled", dense_sizes=(6, 3), epochs=5,
                            patience=5, seed=1)
        model = EstimatorModel(config, input_dim=4,
                               source={"model_id": "cbow-d4-seed0", "kind": "static"})
        train_estimator(model, batch, efforts, batch, efforts)
        path = tmp_path / "estimator.ckpt"
        save_estimator(model, path)
        loaded = load_estimator(path)
        assert loaded.config == model.config
        assert loaded.source == model.source
        np.testing.assert_array_equal(
            predict(loaded, batch), predict(model, batch)
        )

    def test_history_rebuilds_from_the_checkpoint_meta(self, tmp_path):
        from storypointer.kernel.checkpoint import load_checkpoint

        batch, efforts = toy_regression(n=8, dim=4, seed=2)
        model = EstimatorModel(HeadConfig(mode="pooled", epochs=3, patience=3, seed=0),
                               input_dim=4)
        history = train_estimator(model, batch, efforts, batch, efforts)
        path = tmp_path / "estimator.ckpt"
        save_estimator(model, path, history)
        _, meta, _ = load_checkpoint(path)
        assert TrainHistory(**meta["history"]) == history

    def test_rejects_checkpoints_of_other_kinds(self, tmp_path):
        from storypointer.kernel.checkpoint import save_checkpoint

        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {}, meta={"kind": "something-else"})
        with pytest.raises(ValueError):
            load_estimator(path)
