"""Encoder forward/backward behavior and pretraining loops."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from storypointer import transformer
from storypointer.corpus import UnlabeledCorpus, Vocabulary
from storypointer.kernel import RngStream
from storypointer.kernel.checkpoint import load_checkpoint, save_checkpoint
from storypointer.kernel.tensor import _result, unbroadcast
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
    pad_batch,
    save_transformer,
    transformer_from_parts,
)
from storypointer.wordpiece import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    build_wordpiece_vocab,
)

from gradcheck import grad_check

WORDS = ("query", "index", "table", "join", "deploy", "release", "build", "stage")


def word_vocab():
    """One whole-word piece per vocabulary word, plus the specials."""
    pieces = list(SPECIALS) + list(WORDS)
    return Vocabulary(pieces, SPECIALS)


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
            TransformerConfig(hidden=10, heads=4, vocab_size=30)

    def test_zero_heads_is_a_value_error(self):
        with pytest.raises(ValueError):
            TransformerConfig(heads=0, vocab_size=30)

    def test_requires_room_for_framing(self):
        with pytest.raises(ValueError):
            TransformerConfig(max_len=1, vocab_size=30)

    def test_rejects_empty_vocab_and_bad_dropout(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=3)
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=30, dropout=1.0)

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

    def test_stopping_early_gives_the_first_outputs_of_a_full_encoding(self):
        model = tiny_model(layers=3)
        ids = np.vstack([framed([5, 6, 7]), framed([8], max_len=5)])
        full = [out.numpy() for out in model.encode(ids)]
        for k in range(4):
            outputs = model.encode(ids, layers=k)
            assert len(outputs) == k + 1
            for out, reference in zip(outputs, full):
                np.testing.assert_array_equal(out.numpy(), reference)
        for outside in (-1, 4):
            with pytest.raises(ValueError, match=r"^layers must be in 0\.\.3"):
                model.encode(ids, layers=outside)

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


class TestPadBatch:
    def test_rows_are_right_padded_to_the_longest(self):
        rows = [(CLS_ID, 5, SEP_ID), [CLS_ID, SEP_ID], (CLS_ID, 6, 7, SEP_ID)]
        batch = pad_batch(rows)
        assert batch.dtype == np.int64
        np.testing.assert_array_equal(batch, [
            [CLS_ID, 5, SEP_ID, PAD_ID],
            [CLS_ID, SEP_ID, PAD_ID, PAD_ID],
            [CLS_ID, 6, 7, SEP_ID],
        ])
        # segment rows of equal length come back unpadded
        np.testing.assert_array_equal(pad_batch([(0, 1, 1), (0, 0, 1)]), [[0, 1, 1], [0, 0, 1]])


class TestPaddingInvariance:
    def test_appended_padding_leaves_real_tokens_unchanged(self):
        model = tiny_model(layers=2, max_len=12)
        rng = RngStream(40)
        for trial in range(6):
            n_real = int(rng.integers(1, 6))
            real = [int(rng.integers(5, len(model.vocab.tokens))) for _ in range(n_real)]
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


def small_examples(vocab, n=24, seed=0):
    """Hand-rolled unpadded examples over the word vocabulary."""
    rng = RngStream(seed)
    examples = []
    for i in range(n):
        n_a = int(rng.integers(2, 5))
        n_b = int(rng.integers(2, 5))
        a = [int(rng.integers(5, len(vocab))) for _ in range(n_a)]
        b = [int(rng.integers(5, len(vocab))) for _ in range(n_b)]
        ids = [CLS_ID] + a + [SEP_ID] + b + [SEP_ID]
        segments = [0] * (n_a + 2) + [1] * (n_b + 1)
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
        final = model.encode(pad_batch([e.token_ids for e in examples]),
                             pad_batch([e.segment_ids for e in examples]))[-1]
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

    def test_batch_without_masked_positions_is_rejected(self):
        model = tiny_model()
        unmasked = dataclasses.replace(small_examples(model.vocab, n=1)[0],
                                       masked_positions=(), masked_labels=())
        with pytest.raises(ValueError, match="no masked positions"):
            batch_loss(model, [unmasked])


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

    def test_training_step_matches_numpys_batched_linear_to_rounding(self, monkeypatch):
        """`linear` runs one 2-D GEMM per product, and numpy's batched
        matmul one small GEMM per leading index, so the encoder's loss and
        gradients under the two may differ in the last bits only.

        Gradients are compared relative to the largest gradient entry of
        the model: the key biases' gradient is zero in exact arithmetic, so
        its own scale is rounding noise. Over 120 encoders of this size at
        1 and 2 BLAS threads the loss never moved and no gradient moved by
        more than 4e-16 of that scale; the bound leaves a margin of 2500.
        """

        def batched_linear(x, w, b):
            value = np.matmul(x.data, w.data)
            value += b.data
            out = _result(value, (x, w, b))

            def backward(grad):
                b._accumulate(unbroadcast(grad, b.shape))
                x._accumulate(unbroadcast(np.matmul(grad, np.swapaxes(w.data, -1, -2)), x.shape))
                w._accumulate(unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), grad), w.shape))
            out._backward = backward
            return out

        def step():
            model = tiny_model(layers=2, hidden=32, heads=2, ff=64, max_len=24, dropout=0.1)
            joint, _, _ = batch_loss(model, small_examples(model.vocab, n=8, seed=3),
                                     train=True, rng=RngStream(1))
            joint.backward()
            return joint.item(), {name: t.grad for name, t in model.params.items()}

        loss, grads = step()
        with monkeypatch.context() as patch:
            patch.setattr(transformer, "linear", batched_linear)
            ref_loss, ref_grads = step()
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0.0, atol=1e-12 * scale,
                                       err_msg=name)

    def test_backward_frees_the_graph_while_the_loss_is_held(self):
        """Activations are released during backward(), not when `joint` goes.

        What stays held is about the size of the parameter gradients; a
        graph pinned by `joint` would hold about the whole peak rise.
        """
        model = tiny_model(layers=2, hidden=32, heads=2, ff=64, max_len=24, dropout=0.1)
        examples = small_examples(model.vocab, n=8, seed=3)
        tracemalloc.start()  # counts from zero: held and peak are the rise
        try:
            joint, _, _ = batch_loss(model, examples, train=True, rng=RngStream(1))
            joint.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert joint.item() > 0.0  # the root is still referenced
        assert held < 0.25 * peak, (held, peak)

    def test_training_forward_holds_only_what_backward_reads(self):
        """The bytes a training-mode forward leaves allocated stay under a
        bound counted from the shapes.

        What a forward leaves is every node's value plus the arrays its
        backward closure saves. With n = batch * seq positions, hidden H,
        ff F, P = batch * heads * seq * seq attention weights, m masked
        positions and V pieces, counted in float64 values (a bool dropout
        mask is 1/8 of one):
        - embedding: the embed node's sum (nH), layer_norm's value and
          xhat (2 nH) and inverse deviation (n), dropout (9/8 nH);
        - each layer, in nH: q, k, v (3), probs @ v and its reshape copy
          (2), and two residual_layer_norm nodes, each its value, xhat and
          bool mask (2 * 17/8); in nF: ff1, gelu's value and its saved tanh
          (3); in P: the score array, the softmax and its dropout (1 + 1 +
          9/8); two inverse deviations (2 n);
        - heads: the MLM gather, dense, gelu (2) and layer_norm (2) (6 mH,
          plus m), logits and saved log-probabilities (2 mV); the NSP pooler
          and tanh (2 bH), logits and log-probabilities (4 b);
        plus 128 KiB for the nodes' Python objects and the id arrays.
        The composition these nodes replace, which kept each sub-layer's
        projection, its dropout and the residual sum, and the embedding's
        three gathers and first sum, holds about 1.25 times this bound.
        """
        layers, hidden, heads, ff = 2, 32, 2, 64
        model = tiny_model(layers=layers, hidden=hidden, heads=heads, ff=ff, max_len=24,
                           dropout=0.1)
        examples = small_examples(model.vocab, n=8, seed=3)
        b, s = pad_batch([e.token_ids for e in examples]).shape
        n, p = b * s, b * heads * s * s
        m = sum(len(e.masked_positions) for e in examples)
        per_layer = 9.25 * n * hidden + 3 * n * ff + 3.125 * p + 2 * n
        embedding = 4.125 * n * hidden + n
        outputs = 6 * m * hidden + m + 2 * m * len(model.vocab) + 2 * b * hidden + 4 * b
        bound = 8 * (layers * per_layer + embedding + outputs) + 128 * 1024
        tracemalloc.start()
        try:
            joint, _, _ = batch_loss(model, examples, train=True, rng=RngStream(1))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert joint.requires_grad
        assert held < bound, (held, bound)


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
        with pytest.raises(ValueError, match="no examples"):
            evaluate_pretraining(model, [])

    def test_negative_epochs_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="non-negative"):
            pretrain(model, small_examples(model.vocab, n=2), epochs=-1)


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
        vocab_before = list(model.vocab.tokens)
        corpus = UnlabeledCorpus(
            documents=[
                "query index unseen. join table unseen.",
                "deploy release newword. build stage newword.",
            ]
        )
        history = finetune_lm(model, corpus, epochs=2, seed=3)
        assert model.vocab.tokens == vocab_before
        assert len(history.joint) == 2

    def test_a_copy_built_from_arrays_finetunes_and_leaves_its_source_intact(self):
        base = tiny_model(layers=1, hidden=16, heads=2, ff=24)
        before = {name: t.numpy().copy() for name, t in base.params.items()}
        # the construction the fine-tuning-ordering acceptance criterion uses
        tuned = TransformerModel(base.config, base.vocab, params={
            name: t.numpy().copy() for name, t in base.params.items()
        })
        history = finetune_lm(tuned, self.corpus(), epochs=2, seed=1)
        assert len(history.joint) == 2
        assert any(not np.array_equal(before[name], t.numpy()) for name, t in tuned.params.items())
        for name, value in before.items():
            np.testing.assert_array_equal(value, base.params[name].numpy())

    def test_parameters_of_the_wrong_shape_are_refused(self):
        base = tiny_model()
        params = {name: t.numpy() for name, t in base.params.items()}
        params["nsp.b"] = np.zeros(3)
        # the arrays come from the caller, so the message names no checkpoint
        with pytest.raises(ValueError, match=r"^parameter nsp.b has shape \(3,\), "
                                             r"the configured encoder needs \(2,\)$"):
            TransformerModel(base.config, base.vocab, params=params)
        del params["nsp.b"]
        with pytest.raises(ValueError, match=r"^parameters do not match the configured encoder: "
                                             r"missing \['nsp.b'\]"):
            TransformerModel(base.config, base.vocab, params=params)


class TestCheckpointing:
    def test_roundtrip_reproduces_encodings_bitwise(self, tmp_path):
        model = tiny_model(layers=2, hidden=16, heads=2, ff=24, seed=8)
        examples = small_examples(model.vocab, n=6, seed=1)
        pretrain(model, examples, epochs=1, batch_size=3, seed=2)
        path = tmp_path / "encoder.ckpt"
        save_transformer(model, path)
        loaded = load_transformer(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        ids = framed([5, 6, 7], max_len=9)
        np.testing.assert_array_equal(
            model.encode(ids)[-1].numpy(), loaded.encode(ids)[-1].numpy()
        )

    def test_loading_keeps_the_checkpoints_parameter_tensors(self, tmp_path):
        path = tmp_path / "encoder.ckpt"
        save_transformer(tiny_model(), path)
        params, meta, sections = load_checkpoint(path)
        loaded = transformer_from_parts(params, meta, sections)
        assert all(loaded.params[name] is tensor for name, tensor in params.items())

    def test_checkpoint_without_a_vocab_section_is_rejected(self, tmp_path):
        path = tmp_path / "encoder.ckpt"
        model = tiny_model()
        save_checkpoint(path, model.params, meta={
            "kind": "transformer_lm", "config": dataclasses.asdict(model.config)})
        with pytest.raises(ValueError, match="no vocab section"):
            load_transformer(path)

    def test_wrong_checkpoint_kind_is_rejected(self, tmp_path):
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
