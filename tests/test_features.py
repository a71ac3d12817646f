"""Featurizer behavior: token vectors, pooling, masks, degeneracy."""

import dataclasses

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
from storypointer.wordpiece import PAD_ID, SPECIALS, tokenize_wordpiece

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
    vocab = Vocabulary(list(SPECIALS) + words, SPECIALS)
    config = TransformerConfig(
        layers=2, hidden=16, heads=2, ff=24, max_len=20,
        vocab_size=len(vocab), dropout=0.0, seed=1,
    )
    return TransformerModel(config, vocab)


def table_model(words, vectors):
    """A static model whose embedding table is given row by row."""
    vocab = Vocabulary([PAD_WORD, UNK_WORD, *words], (PAD_WORD, UNK_WORD), {w: 1 for w in words})
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
        assert sequence.vectors.shape == (100, 2) and sequence.mask.shape == (1, 100)
        assert sequence.mask.sum() == 100
        np.testing.assert_array_equal(sequence.vectors, np.tile([1.0, 2.0], (100, 1)))
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
        assert batch.vectors.shape == (len(words), 8)
        for t, word in enumerate(words):
            np.testing.assert_array_equal(batch.vectors[t], embed_word(static_model, word))
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
            if mode == "pooled":
                np.testing.assert_array_equal(batch.vectors[0], np.zeros(8))
                continue
            # no rows and an all-padding mask row: the two rows are "query join"'s
            assert batch.mask.tolist() == [[0.0, 0.0], [1.0, 1.0]]
            assert batch.vectors.shape == (2, 8)

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


# lengths unlike the input order, repeats, and two degenerate texts
MIXED_LENGTHS = [SENTENCES[0], "", "query", SENTENCES[1] + " " + SENTENCES[2], "the of",
                 "join cache", SENTENCES[3], "query"]


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
        np.testing.assert_allclose(batch.vectors, real_token_rows(ctx_model, text, 1),
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
        assert batch.vectors.shape == (1, 16)  # the one row of "query"

    def test_featurize_builds_no_graph(self, ctx_model, monkeypatch):
        assert ctx_model.encode(np.array([[1, 5, 2]]))[-1].requires_grad  # the spy can tell
        seen = []
        encode = ctx_model.encode

        def spy(*args, **kwargs):
            outputs = encode(*args, **kwargs)
            seen.append(outputs[-1].requires_grad)
            return outputs

        monkeypatch.setattr(ctx_model, "encode", spy)
        ContextualFeaturizer(ctx_model, mode="pooled").featurize(SENTENCES)
        assert seen == [False]

    def test_featurize_runs_no_block_above_the_penultimate(self, ctx_model, monkeypatch):
        model = TransformerModel(dataclasses.replace(ctx_model.config, layers=3), ctx_model.vocab)
        ran = []
        block = TransformerModel._block

        def spy(self, x, i, *args):
            ran.append(i)
            return block(self, x, i, *args)

        monkeypatch.setattr(TransformerModel, "_block", spy)
        monkeypatch.setattr(features, "CHUNK_SIZE", 2)
        ContextualFeaturizer(model, mode="pooled").featurize(SENTENCES + ["query"])
        assert ran == [0, 1] * 3  # three chunks, each through 2 of the 3 blocks

    def test_chunks_are_cut_in_length_order(self, ctx_model, monkeypatch):
        lengths = []
        encode = ctx_model.encode

        def spy(token_ids, **kwargs):
            lengths.append((token_ids != PAD_ID).sum(axis=1).tolist())
            return encode(token_ids, **kwargs)

        monkeypatch.setattr(ctx_model, "encode", spy)
        monkeypatch.setattr(features, "CHUNK_SIZE", 3)
        ContextualFeaturizer(ctx_model, mode="pooled").featurize(MIXED_LENGTHS)
        framed = [len(tokenize_wordpiece(ctx_model.vocab, clean_text(t))) for t in MIXED_LENGTHS]
        assert sum(lengths, []) == sorted(framed)
        assert [len(chunk) for chunk in lengths] == [3, 3, 2]

    @pytest.mark.parametrize("mode", features.MODES)
    def test_length_ordered_chunks_keep_the_input_order(self, ctx_model, monkeypatch, mode):
        monkeypatch.setattr(features, "CHUNK_SIZE", 3)
        featurizer = ContextualFeaturizer(ctx_model, mode=mode)
        batch = featurizer.featurize(MIXED_LENGTHS)
        backward = featurizer.featurize(MIXED_LENGTHS[::-1])
        alone = [featurizer.featurize([text]) for text in MIXED_LENGTHS]
        np.testing.assert_array_equal(batch.degenerate, backward.degenerate[::-1])
        assert batch.degenerate.tolist() == [a.degenerate[0] for a in alone]
        if mode == "pooled":
            np.testing.assert_allclose(batch.vectors, backward.vectors[::-1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.vectors, [a.vectors[0] for a in alone],
                                       rtol=0, atol=1e-12)
            return
        reversed_back = backward.select(np.arange(len(backward))[::-1])
        np.testing.assert_allclose(batch.vectors, reversed_back.vectors, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batch.mask, backward.mask[::-1])
        for i, a in enumerate(alone):
            steps = a.mask.shape[1]
            np.testing.assert_array_equal(batch.mask[i, :steps], a.mask[0])
            assert not batch.mask[i, steps:].any()
            np.testing.assert_allclose(batch.select([i]).vectors, a.vectors, rtol=0, atol=1e-12)

    def test_long_text_is_truncated_to_window(self, ctx_model):
        long_text = " ".join(["query join table index schema"] * 20)
        featurizer = ContextualFeaturizer(ctx_model, mode="sequence")
        batch = featurizer.featurize([long_text])
        assert batch.mask.shape[1] == len(batch.vectors) == ctx_model.config.max_len - 2


def corpus_padded(model, texts):
    """Static sequence features in the layout they had when every batch was
    padded to the corpus's longest text, kept as the reference: (n, t, d)
    vectors, zero past each text's rows, and the (n, t) mask."""
    rows = [[vec for vec in (embed_word(model, w) for w in
                             tokenize_words(clean_text(text))[:features.MAX_TOKENS])
             if vec is not None] for text in texts]
    steps = max([1] + [len(row) for row in rows])
    vectors = np.zeros((len(rows), steps, model.dimension))
    mask = np.zeros((len(rows), steps))
    for i, row in enumerate(rows):
        if len(row):
            vectors[i, : len(row)] = row
            mask[i, : len(row)] = 1.0
    return vectors, mask


class TestFeatureBatch:
    def test_sequence_rows_are_the_padded_layout_under_its_mask(self, static_model):
        batch = StaticFeaturizer(static_model, mode="sequence").featurize(MIXED_LENGTHS)
        vectors, mask = corpus_padded(static_model, MIXED_LENGTHS)
        np.testing.assert_array_equal(batch.mask, mask)
        assert batch.vectors.tobytes() == vectors[mask > 0].tobytes()
        assert len(batch) == len(MIXED_LENGTHS)

    @pytest.mark.parametrize("picks", [[0, 1, 2, 3, 4, 5, 6, 7], [3, 0], [2, 7, 2], [1, 4], [],
                                       [7, 6, 5, 4, 3, 2, 1, 0]])
    def test_select_is_the_corpus_padding_of_the_picks_under_their_mask(self, static_model,
                                                                        picks):
        batch = StaticFeaturizer(static_model, mode="sequence").featurize(MIXED_LENGTHS)
        vectors, mask = corpus_padded(static_model, MIXED_LENGTHS)
        picked = batch.select(picks)
        assert picked.vectors.tobytes() == vectors[picks][mask[picks] > 0].tobytes()
        assert picked.vectors.shape == (int(mask[picks].sum()), 8)
        np.testing.assert_array_equal(picked.mask, mask[picks])

    def test_select_subsets_rows(self, static_model):
        """In the order picked, copying the chosen texts' real rows only."""
        featurizer = StaticFeaturizer(static_model, mode="sequence")
        batch = featurizer.featurize(MIXED_LENGTHS)
        picks = [6, 1, 3, 0, 3]
        picked = batch.select(picks)
        chosen = [featurizer.featurize([MIXED_LENGTHS[i]]).vectors for i in picks]
        assert picked.vectors.shape == (sum(len(rows) for rows in chosen), 8)
        assert picked.vectors.tobytes() == np.concatenate(chosen).tobytes()
        assert not np.shares_memory(picked.vectors, batch.vectors)
        np.testing.assert_array_equal(picked.mask, batch.mask[picks])
        np.testing.assert_array_equal(picked.degenerate, batch.degenerate[picks])
        assert len(picked) == 5

    def test_no_texts_give_an_empty_batch(self, static_model, ctx_model):
        pairs = ((StaticFeaturizer, static_model), (ContextualFeaturizer, ctx_model))
        for featurizer, model in pairs:
            d = featurizer(model).dimension
            flat = featurizer(model, mode="pooled").featurize([])
            assert flat.vectors.shape == (0, d) and flat.degenerate.shape == (0,)
            sequence = featurizer(model, mode="sequence").featurize([])
            assert sequence.vectors.shape == (0, d) and sequence.mask.shape == (0, 1)
            assert len(sequence) == 0 and sequence.dimension == d
