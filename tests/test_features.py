"""Featurizer behavior: token vectors, pooling, masks, degeneracy."""

import numpy as np
import pytest

from storypointer import features
from storypointer.corpus import (
    PAD_WORD,
    UNK_WORD,
    UnlabeledCorpus,
    Vocabulary,
    clean_text,
    tokenize_words,
)
from storypointer.features import ContextualFeaturizer, StaticFeaturizer
from storypointer.static_embed import (
    StaticEmbeddingModel,
    StaticTrainConfig,
    embed_word,
    train_static,
)
from storypointer.transformer import TransformerConfig, TransformerModel
from storypointer.wordpiece import SPECIALS, WordPieceVocab, tokenize_wordpiece

SENTENCES = [
    "query index table join schema",
    "deploy release build stage server",
    "query join merge cache rows",
    "deploy stage patch monitor alert",
]


@pytest.fixture(scope="module")
def static_model():
    corpus = UnlabeledCorpus(documents=SENTENCES * 3)
    config = StaticTrainConfig(mode="cbow", dimension=8, epochs=3, seed=2)
    return train_static(corpus, config)


@pytest.fixture(scope="module")
def ctx_model():
    words = sorted({w for s in SENTENCES for w in s.split()})
    vocab = WordPieceVocab(list(SPECIALS) + words)
    config = TransformerConfig(
        layers=2, hidden=16, heads=2, ff=24, max_len=20,
        vocab_size=len(vocab), dropout=0.0, seed=1,
    )
    return TransformerModel(config, vocab)


def table_model(words, vectors):
    """A static model whose embedding table is given row by row."""
    vocab = Vocabulary(
        specials=(PAD_WORD, UNK_WORD),
        ordered_tokens=list(words),
        counts={w: 1 for w in words},
    )
    d = len(vectors[0])
    vin = np.vstack([np.zeros((2, d)), np.array(vectors, dtype=np.float64)])
    return StaticEmbeddingModel(vocab, vin, np.zeros_like(vin), StaticTrainConfig(dimension=d))


def pooled(model, text):
    """The pooled static feature vector and degenerate flag of one text."""
    batch = StaticFeaturizer(model, mode="pooled").featurize([text])
    return batch.vectors[0], batch.degenerate[0]


class TestStaticPooling:
    def test_mean_of_two_vectors(self):
        vector, degenerate = pooled(table_model(["red", "blue"], [[1.0, 2.0], [3.0, 4.0]]),
                                    "red blue")
        np.testing.assert_array_equal(vector, [2.0, 3.0])
        assert not degenerate

    def test_repeated_word_is_identity(self):
        vector, _ = pooled(table_model(["red"], [[1.5, -2.5]]), "red red red")
        np.testing.assert_array_equal(vector, [1.5, -2.5])

    def test_oov_words_are_skipped(self):
        vector, _ = pooled(table_model(["red", "blue"], [[1.0, 2.0], [3.0, 4.0]]), "red plaid")
        np.testing.assert_array_equal(vector, [1.0, 2.0])

    def test_all_oov_is_degenerate_zero(self):
        vector, degenerate = pooled(table_model(["red"], [[1.0, 1.0]]), "plaid paisley")
        np.testing.assert_array_equal(vector, [0.0, 0.0])
        assert degenerate

    def test_empty_text_is_degenerate(self):
        assert pooled(table_model(["red"], [[1.0, 1.0]]), "")[1]

    def test_permutation_invariant(self):
        model = table_model(["a1", "b2", "c3"], [[1, 0], [0, 1], [2, 2]])
        np.testing.assert_allclose(pooled(model, "a1 b2 c3")[0], pooled(model, "c3 a1 b2")[0])

    def test_row_scaling_scales_pooled_vector(self):
        base, _ = pooled(table_model(["a1", "b2"], [[1.0, 2.0], [3.0, 4.0]]), "a1 b2")
        triple, _ = pooled(table_model(["a1", "b2"], [[3.0, 6.0], [9.0, 12.0]]), "a1 b2")
        np.testing.assert_allclose(triple, 3.0 * base)

    def test_only_sequence_features_cap_the_word_count(self):
        model = table_model(["red", "blue"], [[1.0, 2.0], [3.0, 4.0]])
        text = " ".join(["red"] * 100 + ["blue"] * 5)
        sequence = StaticFeaturizer(model, mode="sequence").featurize([text])
        assert features.MAX_TOKENS == 100
        assert sequence.vectors.shape == (1, 100, 2)
        assert sequence.mask.sum() == 100
        np.testing.assert_array_equal(sequence.vectors[0], np.tile([1.0, 2.0], (100, 1)))
        vector, _ = pooled(model, text)
        np.testing.assert_allclose(vector, (100 * np.array([1.0, 2.0]) + [15.0, 20.0]) / 105,
                                   rtol=0, atol=1e-12)


class TestStaticFeaturizer:
    def test_pooled_matches_word_vector_mean(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="pooled")
        text = SENTENCES[0]
        batch = featurizer.featurize([text])
        vectors = [embed_word(static_model, w) for w in text.split()]
        np.testing.assert_allclose(
            batch.vectors[0], np.mean(vectors, axis=0), rtol=0, atol=1e-12
        )
        assert not batch.degenerate[0]

    def test_sequence_rows_follow_token_order(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="sequence")
        text = SENTENCES[1]
        batch = featurizer.featurize([text])
        words = text.split()
        assert batch.vectors.shape == (1, len(words), 8)
        for t, word in enumerate(words):
            np.testing.assert_array_equal(batch.vectors[0, t], embed_word(static_model, word))
            assert batch.mask[0, t] == 1.0

    def test_out_of_vocabulary_words_are_dropped(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="sequence")
        batch = featurizer.featurize(["query exoplanet join"])
        assert batch.mask[0].sum() == 2  # only the two known words remain

    def test_unusable_text_is_degenerate(self, static_model):
        for mode in ("sequence", "pooled"):
            featurizer = StaticFeaturizer(static_model, mode=mode)
            batch = featurizer.featurize(["", "query join"])
            assert batch.degenerate.tolist() == [True, False]
            np.testing.assert_array_equal(
                batch.vectors[0], np.zeros_like(batch.vectors[0])
            )

    def test_raw_and_cleaned_text_agree(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="pooled")
        raw = "The QUERY, and the Join!"
        batch = featurizer.featurize([raw, clean_text(raw)])
        np.testing.assert_array_equal(batch.vectors[0], batch.vectors[1])

    def test_mode_validation(self, static_model):
        with pytest.raises(ValueError):
            StaticFeaturizer(static_model, mode="tokens")


def test_describe_dicts_are_pinned(static_model, ctx_model):
    # both are written into estimator checkpoints and provenance.json
    static = StaticFeaturizer(static_model, mode="pooled").describe()
    assert list(static.items()) == [
        ("kind", "static"), ("model_id", "static-cbow-d8-seed2"), ("mode", "pooled"),
        ("dimension", 8), ("max_tokens", 100),
    ]
    contextual = ContextualFeaturizer(ctx_model, mode="sequence").describe()
    assert list(contextual.items()) == [
        ("kind", "contextual"), ("model_id", "ctx-L2-H16-A2-seed1"), ("mode", "sequence"),
        ("dimension", 16), ("layer", None),
    ]


def real_token_rows(model, text, layer):
    """One text's rows of an encoder layer at its real (non-special) tokens."""
    ids = tokenize_wordpiece(model.vocab, clean_text(text))
    return model.encode(np.array([ids]))[layer].numpy()[0, 1:-1]


class TestContextualFeaturizer:
    def test_pooled_mean_of_the_penultimate_layer(self, ctx_model):
        text = SENTENCES[2]
        batch = ContextualFeaturizer(ctx_model, mode="pooled").featurize([text])
        assert not batch.degenerate[0]
        # two encoder layers: outputs are [embedding sum, layer 1, layer 2]
        penultimate = real_token_rows(ctx_model, text, 1).mean(axis=0)
        np.testing.assert_allclose(batch.vectors[0], penultimate, rtol=0, atol=1e-12)
        assert not np.allclose(batch.vectors[0], real_token_rows(ctx_model, text, 2).mean(axis=0))

    def test_pooling_skips_specials_and_padding(self, ctx_model):
        short, long = "query join", SENTENCES[0]
        batch = ContextualFeaturizer(ctx_model, mode="pooled").featurize([short, long])
        unpadded = real_token_rows(ctx_model, short, 1).mean(axis=0)
        np.testing.assert_allclose(batch.vectors[0], unpadded, rtol=0, atol=1e-9)

    def test_sequence_keeps_one_row_per_real_token(self, ctx_model):
        featurizer = ContextualFeaturizer(ctx_model, mode="sequence")
        text = SENTENCES[3]
        batch = featurizer.featurize([text])
        n_words = len(tokenize_words(clean_text(text)))
        assert batch.mask[0].sum() == n_words
        np.testing.assert_allclose(batch.vectors[0], real_token_rows(ctx_model, text, 1),
                                   rtol=0, atol=1e-12)

    def test_chunked_batches_match_single_batch(self, ctx_model, monkeypatch):
        texts = SENTENCES + ["query monitor", "release rows cache"]
        featurizer = ContextualFeaturizer(ctx_model, mode="pooled")
        monkeypatch.setattr(features, "CHUNK_SIZE", 2)
        one = featurizer.featurize(texts)
        monkeypatch.setattr(features, "CHUNK_SIZE", 64)
        whole = featurizer.featurize(texts)
        np.testing.assert_allclose(one.vectors, whole.vectors, rtol=0, atol=1e-9)

    def test_empty_text_degenerates_to_cls(self, ctx_model):
        featurizer = ContextualFeaturizer(ctx_model, mode="pooled")
        batch = featurizer.featurize([""])
        assert batch.degenerate[0]
        assert np.isfinite(batch.vectors[0]).all()

    def test_degenerate_pooled_vector_is_the_cls_row(self, ctx_model):
        batch = ContextualFeaturizer(ctx_model, mode="pooled").featurize(["query", "the of"])
        ids = tokenize_wordpiece(ctx_model.vocab, "")
        cls_row = ctx_model.encode(np.array([ids]))[-2].numpy()[0, 0]
        assert batch.degenerate.tolist() == [False, True]
        np.testing.assert_allclose(batch.vectors[1], cls_row, rtol=0, atol=1e-12)

    def test_degenerate_sequence_row_is_all_padding(self, ctx_model):
        batch = ContextualFeaturizer(ctx_model, mode="sequence").featurize(["query", "the of"])
        assert batch.degenerate.tolist() == [False, True]
        assert batch.mask.tolist() == [[1.0], [0.0]]
        np.testing.assert_array_equal(batch.vectors[1], np.zeros((1, 16)))

    def test_featurize_builds_no_graph(self, ctx_model, monkeypatch):
        assert ctx_model.encode(np.array([[1, 5, 2]]))[-2].requires_grad  # the spy can tell
        seen = []
        encode = ctx_model.encode

        def spy(*args, **kwargs):
            outputs = encode(*args, **kwargs)
            seen.append(outputs[-2].requires_grad)
            return outputs

        monkeypatch.setattr(ctx_model, "encode", spy)
        ContextualFeaturizer(ctx_model, mode="pooled").featurize(SENTENCES)
        assert seen == [False]

    def test_long_text_is_truncated_to_window(self, ctx_model):
        long_text = " ".join(["query join table index schema"] * 20)
        featurizer = ContextualFeaturizer(ctx_model, mode="sequence")
        batch = featurizer.featurize([long_text])
        assert batch.vectors.shape[1] <= ctx_model.config.max_len - 2


class TestFeatureBatch:
    def test_select_subsets_rows(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="sequence")
        batch = featurizer.featurize(SENTENCES)
        picked = batch.select([2, 0])
        np.testing.assert_array_equal(picked.vectors[0], batch.vectors[2])
        np.testing.assert_array_equal(picked.vectors[1], batch.vectors[0])
        np.testing.assert_array_equal(picked.mask[0], batch.mask[2])
        assert len(picked) == 2

    def test_no_texts_give_an_empty_batch(self, static_model, ctx_model):
        pairs = ((StaticFeaturizer, static_model), (ContextualFeaturizer, ctx_model))
        for featurizer, model in pairs:
            d = featurizer(model).dimension
            flat = featurizer(model, mode="pooled").featurize([])
            assert flat.vectors.shape == (0, d) and flat.degenerate.shape == (0,)
            sequence = featurizer(model, mode="sequence").featurize([])
            assert sequence.vectors.shape == (0, 1, d) and sequence.mask.shape == (0, 1)
