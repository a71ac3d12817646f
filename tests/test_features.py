"""Featurizer behavior: token vectors, pooling, masks, degeneracy."""

import numpy as np
import pytest

from storypointer.corpus import UnlabeledCorpus, clean_text, tokenize_words
from storypointer.features import ContextualFeaturizer, StaticFeaturizer
from storypointer.static_embed import StaticTrainConfig, embed_word, train_static
from storypointer.transformer import (
    PoolingStrategy,
    TransformerConfig,
    TransformerModel,
    pool_sentence,
)
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

    def test_token_cap_truncates_long_texts(self, static_model):
        featurizer = StaticFeaturizer(static_model, mode="sequence", max_tokens=3)
        batch = featurizer.featurize(["query index table join schema rows"])
        assert batch.vectors.shape[1] == 3

    def test_mode_validation(self, static_model):
        with pytest.raises(ValueError):
            StaticFeaturizer(static_model, mode="tokens")

    def test_describe_names_the_source(self, static_model):
        info = StaticFeaturizer(static_model, mode="pooled").describe()
        assert info["kind"] == "static"
        assert info["mode"] == "pooled"
        assert info["dimension"] == 8
        assert info["model_id"] == static_model.model_id


class TestContextualFeaturizer:
    def test_pooled_matches_single_sentence_pooling(self, ctx_model):
        featurizer = ContextualFeaturizer(ctx_model, mode="pooled")
        text = SENTENCES[2]
        batch = featurizer.featurize([text])
        ids, _ = tokenize_wordpiece(ctx_model.vocab, clean_text(text))
        outputs = ctx_model.encode(np.array([ids]))
        expected, degenerate = pool_sentence(outputs[-2].numpy()[0], np.array(ids))
        assert not degenerate
        np.testing.assert_allclose(batch.vectors[0], expected, rtol=0, atol=1e-12)

    def test_sequence_keeps_one_row_per_real_token(self, ctx_model):
        featurizer = ContextualFeaturizer(ctx_model, mode="sequence")
        text = SENTENCES[3]
        batch = featurizer.featurize([text])
        n_words = len(tokenize_words(clean_text(text)))
        assert batch.mask[0].sum() == n_words

    def test_chunked_batches_match_single_batch(self, ctx_model):
        texts = SENTENCES + ["query monitor", "release rows cache"]
        one = ContextualFeaturizer(ctx_model, mode="pooled", chunk_size=2).featurize(texts)
        whole = ContextualFeaturizer(ctx_model, mode="pooled", chunk_size=64).featurize(texts)
        np.testing.assert_allclose(one.vectors, whole.vectors, rtol=0, atol=1e-9)

    def test_empty_text_degenerates_to_cls(self, ctx_model):
        featurizer = ContextualFeaturizer(ctx_model, mode="pooled")
        batch = featurizer.featurize([""])
        assert batch.degenerate[0]
        assert np.isfinite(batch.vectors[0]).all()

    def test_degenerate_pooled_vector_is_the_cls_row(self, ctx_model):
        batch = ContextualFeaturizer(ctx_model, mode="pooled").featurize(["query", "the of"])
        ids, _ = tokenize_wordpiece(ctx_model.vocab, "")
        cls_row = ctx_model.encode(np.array([ids]))[-2].numpy()[0, 0]
        assert batch.degenerate.tolist() == [False, True]
        np.testing.assert_allclose(batch.vectors[1], cls_row, rtol=0, atol=1e-12)

    def test_layer_strategy_changes_features(self, ctx_model):
        text = SENTENCES[0]
        deep = ContextualFeaturizer(ctx_model, mode="pooled").featurize([text])
        shallow = ContextualFeaturizer(
            ctx_model, mode="pooled", strategy=PoolingStrategy(layer=0)
        ).featurize([text])
        assert not np.allclose(deep.vectors, shallow.vectors)

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
