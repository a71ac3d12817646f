"""Encoder forward/backward behavior and pretraining loops."""

import tracemalloc

import numpy as np
import pytest

from storypointer.corpus import UnlabeledCorpus
from storypointer.kernel import RngStream, grad_check
from storypointer.lm_training import (
    batch_loss,
    evaluate_pretraining,
    finetune_lm,
    pretrain,
)
from storypointer.pretrain_data import PretrainExample, create_pretraining_data
from storypointer.transformer import (
    TransformerConfig,
    TransformerModel,
    load_transformer,
    save_transformer,
)
from storypointer.wordpiece import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    WordPieceVocab,
    build_wordpiece_vocab,
)

WORDS = ("query", "index", "table", "join", "deploy", "release", "build", "stage")


def word_vocab():
    """One whole-word piece per vocabulary word, plus the specials."""
    pieces = list(SPECIALS) + list(WORDS)
    return WordPieceVocab(pieces)


def tiny_model(layers=1, hidden=8, heads=2, ff=16, max_len=12, seed=0, dropout=0.0):
    vocab = word_vocab()
    config = TransformerConfig(
        layers=layers, hidden=hidden, heads=heads, ff=ff, max_len=max_len,
        vocab_size=len(vocab), dropout=dropout, seed=seed,
    )
    return TransformerModel(config, vocab)


def framed(real_ids, max_len=None):
    ids = [CLS_ID] + list(real_ids) + [SEP_ID]
    if max_len is not None:
        ids = ids + [PAD_ID] * (max_len - len(ids))
    return np.array([ids], dtype=np.int64)


class TestConfig:
    def test_hidden_must_divide_by_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(hidden=10, heads=4, vocab_size=30).validate()

    def test_zero_heads_is_a_value_error(self):
        with pytest.raises(ValueError):
            TransformerConfig(heads=0, vocab_size=30).validate()

    def test_requires_room_for_framing(self):
        with pytest.raises(ValueError):
            TransformerConfig(max_len=1, vocab_size=30).validate()

    def test_rejects_empty_vocab_and_bad_dropout(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=3).validate()
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=30, dropout=1.0).validate()

    def test_vocab_size_must_match_vocabulary(self):
        vocab = word_vocab()
        config = TransformerConfig(vocab_size=len(vocab) + 1)
        with pytest.raises(ValueError):
            TransformerModel(config, vocab)


class TestEncodeShapes:
    def test_returns_embedding_sum_plus_one_output_per_layer(self):
        model = tiny_model(layers=3)
        ids = framed([5, 6, 7])
        outputs = model.encode(ids)
        assert len(outputs) == 4
        for out in outputs:
            assert out.shape == (1, 5, 8)

    def test_layer_zero_is_the_embedding_sum(self):
        model = tiny_model()
        ids = framed([5, 6])
        segments = np.zeros_like(ids)
        out = model.encode(ids, segments)[0].numpy()
        p = model.params
        expected = (
            p["emb.token"].numpy()[ids[0]]
            + p["emb.position"].numpy()[: ids.shape[1]]
            + p["emb.segment"].numpy()[segments[0]]
        )
        np.testing.assert_array_equal(out[0], expected)

    def test_sequences_beyond_max_len_are_rejected(self):
        model = tiny_model(max_len=6)
        with pytest.raises(ValueError):
            model.encode(framed([5, 6, 7, 8, 9]))

    def test_deterministic_initialization_and_encoding(self):
        a = tiny_model(seed=3)
        b = tiny_model(seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].numpy(), b.params[name].numpy())
        ids = framed([5, 6, 7])
        np.testing.assert_array_equal(
            a.encode(ids)[-1].numpy(), b.encode(ids)[-1].numpy()
        )
        c = tiny_model(seed=4)
        assert not np.array_equal(
            a.params["emb.token"].numpy(), c.params["emb.token"].numpy()
        )

    def test_training_mode_dropout_requires_rng(self):
        model = tiny_model(dropout=0.2)
        with pytest.raises(ValueError):
            model.encode(framed([5, 6]), train=True)


class TestPaddingInvariance:
    def test_appended_padding_leaves_real_tokens_unchanged(self):
        model = tiny_model(layers=2, max_len=12)
        rng = RngStream(40)
        for trial in range(6):
            n_real = int(rng.integers(1, 6))
            real = [int(rng.integers(5, len(model.vocab.pieces))) for _ in range(n_real)]
            short = framed(real)
            padded = framed(real, max_len=12)
            short_out = model.encode(short)[-1].numpy()[0]
            padded_out = model.encode(padded)[-1].numpy()[0]
            span = short.shape[1]
            assert np.max(np.abs(padded_out[:span] - short_out)) <= 1e-6

    def test_invariance_holds_at_every_layer(self):
        model = tiny_model(layers=3)
        real = [5, 6, 7, 8]
        short = model.encode(framed(real))
        padded = model.encode(framed(real, max_len=10))
        for layer_short, layer_padded in zip(short, padded):
            a = layer_short.numpy()[0]
            b = layer_padded.numpy()[0][: a.shape[0]]
            assert np.max(np.abs(a - b)) <= 1e-6


def small_examples(vocab, n=24, seq_len=12, seed=0):
    """Hand-rolled examples over the word vocabulary."""
    rng = RngStream(seed)
    examples = []
    for i in range(n):
        n_a = int(rng.integers(2, 5))
        n_b = int(rng.integers(2, 5))
        a = [int(rng.integers(5, len(vocab))) for _ in range(n_a)]
        b = [int(rng.integers(5, len(vocab))) for _ in range(n_b)]
        ids = [CLS_ID] + a + [SEP_ID] + b + [SEP_ID]
        segments = [0] * (n_a + 2) + [1] * (n_b + 1)
        pad = seq_len - len(ids)
        ids += [PAD_ID] * pad
        segments += [0] * pad
        position = 1 + int(rng.integers(0, n_a))
        examples.append(
            PretrainExample(
                token_ids=tuple(ids),
                segment_ids=tuple(segments),
                masked_positions=(position,),
                masked_labels=(a[position - 1],),
                is_next=bool(i % 2),
            )
        )
    return examples


class TestLossDecomposition:
    def test_batch_mlm_loss_is_count_weighted_mean_of_singles(self):
        model = tiny_model(layers=2, hidden=16, heads=2, ff=24)
        examples = small_examples(model.vocab, n=4, seed=5)
        _, batch_mlm, _ = batch_loss(model, examples)
        weighted = 0.0
        counts = 0
        for example in examples:
            _, single, _ = batch_loss(model, [example])
            weighted += single * len(example.masked_positions)
            counts += len(example.masked_positions)
        np.testing.assert_allclose(batch_mlm, weighted / counts, rtol=1e-9)

    def test_mlm_component_ignores_the_pair_label(self):
        model = tiny_model(hidden=16, heads=2)
        example = small_examples(model.vocab, n=1, seed=2)[0]
        flipped = PretrainExample(
            token_ids=example.token_ids,
            segment_ids=example.segment_ids,
            masked_positions=example.masked_positions,
            masked_labels=example.masked_labels,
            is_next=not example.is_next,
        )
        _, mlm_a, nsp_a = batch_loss(model, [example])
        _, mlm_b, nsp_b = batch_loss(model, [flipped])
        assert mlm_a == mlm_b
        assert nsp_a != nsp_b

    def test_mlm_component_depends_only_on_masked_labels(self):
        model = tiny_model(hidden=16, heads=2)
        example = small_examples(model.vocab, n=1, seed=3)[0]
        relabeled = PretrainExample(
            token_ids=example.token_ids,
            segment_ids=example.segment_ids,
            masked_positions=example.masked_positions,
            masked_labels=tuple(
                5 if l != 5 else 6 for l in example.masked_labels
            ),
            is_next=example.is_next,
        )
        _, mlm_a, nsp_a = batch_loss(model, [example])
        _, mlm_b, nsp_b = batch_loss(model, [relabeled])
        assert mlm_a != mlm_b
        assert nsp_a == nsp_b

    def test_nsp_component_matches_manual_cross_entropy(self):
        model = tiny_model(hidden=16, heads=2)
        examples = small_examples(model.vocab, n=6, seed=8)
        _, _, nsp = batch_loss(model, examples)
        ids = np.array([e.token_ids for e in examples])
        lengths = (ids != PAD_ID).sum(axis=1)
        trimmed = ids[:, : lengths.max()]
        final = model.encode(trimmed, np.array([e.segment_ids for e in examples])[:, : lengths.max()])[-1]
        logits = model.nsp_logits(final).numpy()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        labels = np.array([1 if e.is_next else 0 for e in examples])
        manual = -log_probs[np.arange(len(examples)), labels].mean()
        np.testing.assert_allclose(nsp, manual, rtol=1e-12)

    def test_empty_batch_is_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            batch_loss(model, [])


class TestGradients:
    def test_tiny_encoder_matches_central_differences(self):
        model = tiny_model(layers=1, hidden=8, heads=2, ff=16, max_len=6)
        ids = np.array([[CLS_ID, 5, SEP_ID, 6, SEP_ID, PAD_ID]])
        segments = np.array([[0, 0, 0, 1, 1, 0]])
        example = PretrainExample(
            token_ids=tuple(ids[0]), segment_ids=tuple(segments[0]),
            masked_positions=(1,), masked_labels=(7,), is_next=True,
        )

        def loss_fn():
            joint, _, _ = batch_loss(model, [example])
            return joint

        report = grad_check(
            loss_fn, model.params, h=1e-5,
            max_coords_per_param=6, rng=RngStream(12),
        )
        assert report.max_rel_error < 1e-3, str(report)

    def test_backward_frees_the_graph_while_the_loss_is_held(self):
        """Activations are released during backward(), not when `joint` goes.

        What stays held is about the size of the parameter gradients; a
        graph pinned by `joint` would hold about the whole peak rise.
        """
        model = tiny_model(layers=2, hidden=32, heads=2, ff=64, max_len=24, dropout=0.1)
        examples = small_examples(model.vocab, n=8, seq_len=24, seed=3)
        tracemalloc.start()  # counts from zero: held and peak are the rise
        try:
            joint, _, _ = batch_loss(model, examples, train=True, rng=RngStream(1))
            joint.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert joint.item() > 0.0  # the root is still referenced
        assert held < 0.25 * peak, (held, peak)


class TestPretraining:
    def test_loss_history_decreases_on_memorizable_data(self):
        model = tiny_model(layers=2, hidden=16, heads=2, ff=32)
        examples = small_examples(model.vocab, n=16, seed=1)
        history = pretrain(model, examples, epochs=8, batch_size=8, seed=3)
        assert len(history.joint) == 8
        assert history.joint[-1] < history.joint[0]
        assert history.mlm[-1] < history.mlm[0]

    def test_pretraining_is_deterministic(self):
        runs = []
        for _ in range(2):
            model = tiny_model(layers=1, hidden=16, heads=2, ff=24, seed=6)
            examples = small_examples(model.vocab, n=8, seed=2)
            pretrain(model, examples, epochs=2, batch_size=4, seed=9)
            runs.append({k: v.numpy().copy() for k, v in model.params.items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_dropout_training_still_converges_deterministically(self):
        model = tiny_model(layers=1, hidden=16, heads=2, ff=24, dropout=0.1)
        examples = small_examples(model.vocab, n=8, seed=4)
        history = pretrain(model, examples, epochs=3, batch_size=4, seed=5)
        assert len(history.joint) == 3

    def test_evaluation_does_not_change_parameters(self):
        model = tiny_model(hidden=16, heads=2)
        examples = small_examples(model.vocab, n=8, seed=7)
        before = {k: v.numpy().copy() for k, v in model.params.items()}
        joint, mlm, nsp = evaluate_pretraining(model, examples)
        assert joint == pytest.approx(mlm + nsp, rel=1e-12)
        for name, value in before.items():
            np.testing.assert_array_equal(value, model.params[name].numpy())

    def test_empty_example_list_is_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            pretrain(model, [], epochs=1)


class TestFinetuning:
    def corpus(self):
        return UnlabeledCorpus(
            documents=[
                "query index table. join query table. index join rows.",
                "deploy release build. stage deploy build. release stage deploy.",
            ]
        )

    def test_zero_epochs_leaves_parameters_bitwise_intact(self):
        model = tiny_model(hidden=16, heads=2)
        before = {k: v.numpy().copy() for k, v in model.params.items()}
        history = finetune_lm(model, self.corpus(), epochs=0)
        assert history.joint == []
        for name, value in before.items():
            np.testing.assert_array_equal(value, model.params[name].numpy())

    def test_finetuning_reuses_the_frozen_vocabulary(self):
        model = tiny_model(layers=1, hidden=16, heads=2, ff=24)
        vocab_before = list(model.vocab.pieces)
        corpus = UnlabeledCorpus(
            documents=[
                "query index unseen. join table unseen.",
                "deploy release newword. build stage newword.",
            ]
        )
        history = finetune_lm(model, corpus, epochs=2, seed=3)
        assert model.vocab.pieces == vocab_before
        assert len(history.joint) == 2


class TestCheckpointing:
    def test_roundtrip_reproduces_encodings_bitwise(self, tmp_path):
        model = tiny_model(layers=2, hidden=16, heads=2, ff=24, seed=8)
        examples = small_examples(model.vocab, n=6, seed=1)
        pretrain(model, examples, epochs=1, batch_size=3, seed=2)
        path = tmp_path / "encoder.ckpt"
        save_transformer(model, path)
        loaded = load_transformer(path)
        assert loaded.config == model.config
        assert loaded.vocab.pieces == model.vocab.pieces
        ids = framed([5, 6, 7], max_len=9)
        np.testing.assert_array_equal(
            model.encode(ids)[-1].numpy(), loaded.encode(ids)[-1].numpy()
        )

    def test_wrong_checkpoint_kind_is_rejected(self, tmp_path):
        from storypointer.kernel.checkpoint import save_checkpoint
        from storypointer.kernel import parameter

        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"w": parameter(np.zeros(3))}, meta={"kind": "other"})
        with pytest.raises(ValueError):
            load_transformer(path)


class TestDeskScaleLearning:
    def test_masked_loss_drops_markedly_on_a_small_corpus(self):
        docs = []
        for d in range(8):
            words = WORDS if d % 2 == 0 else tuple(reversed(WORDS))
            sentences = [
                " ".join(words[(d + s + j) % len(words)] for j in range(5))
                for s in range(5)
            ]
            docs.append(". ".join(sentences) + ".")
        corpus = UnlabeledCorpus(documents=docs)
        vocab = build_wordpiece_vocab(corpus, size=80)
        config = TransformerConfig(
            layers=2, hidden=32, heads=2, ff=64, max_len=24,
            vocab_size=len(vocab), dropout=0.0, seed=0,
        )
        model = TransformerModel(config, vocab)
        examples = create_pretraining_data(
            corpus, vocab, seed=4, max_len=24, n_examples=48
        )
        initial, initial_mlm, _ = evaluate_pretraining(model, examples)
        pretrain(model, examples, epochs=10, batch_size=16, seed=6)
        final, final_mlm, _ = evaluate_pretraining(model, examples)
        assert final_mlm <= 0.7 * initial_mlm
        assert final < initial
