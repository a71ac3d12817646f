"""Static embedding training, fine-tuning, lookup and checkpoint tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storypointer.corpus import PAD_WORD, UNK_WORD, UnlabeledCorpus, Vocabulary, clean_text
from storypointer.kernel import RngStream
from storypointer.kernel.checkpoint import load_checkpoint, save_checkpoint
from storypointer.static_embed import (
    CHUNK,
    StaticEmbeddingModel,
    StaticTrainConfig,
    _context_windows,
    _draw_noise,
    _flatten,
    _negative_sampling_step,
    _noise_distribution,
    _pairs,
    _scatter_add,
    _sentence_ids,
    cosine,
    embed_word,
    finetune_static,
    frozen_batch_loss,
    load_static,
    make_frozen_batch,
    save_static,
    train_static,
)


def synthetic_corpus(n_sentences=50):
    """Half the sentences pair db+sql, half pair cat+dog; never mixed.

    Twelve rotating filler words per topic keep the noise distribution
    spread out, so the co-occurrence signal beats the common-drift
    direction that dominates tiny low-diversity corpora.
    """
    tech = ["query", "index", "table", "join", "schema", "rows",
            "column", "merge", "backup", "shard", "cache", "log"]
    pets = ["park", "leash", "bone", "nap", "tail", "fur",
            "walk", "fetch", "collar", "vet", "treat", "bark"]
    docs = []
    for i in range(n_sentences):
        if i % 2 == 0:
            fill = [tech[(i * 3 + j) % 12] for j in range(6)]
            docs.append("db sql " + " ".join(fill))
        else:
            fill = [pets[(i * 5 + j) % 12] for j in range(6)]
            docs.append("cat dog " + " ".join(fill))
    return UnlabeledCorpus(documents=docs)


def quick_config(**overrides):
    base = dict(mode="cbow", dimension=32, window=5, negatives=5, epochs=30,
                learning_rate=0.025, min_count=1, seed=7)
    base.update(overrides)
    return StaticTrainConfig(**base)


def tiny_model(words, vectors):
    vocab = Vocabulary([PAD_WORD, UNK_WORD, *words], (PAD_WORD, UNK_WORD), {w: 1 for w in words})
    d = len(vectors[0])
    vin = np.vstack([np.zeros((2, d)), np.array(vectors, dtype=np.float64)])
    return StaticEmbeddingModel(vocab, vin, np.zeros_like(vin), StaticTrainConfig(dimension=d))


class TestTrainStatic:
    def test_cooccurring_words_end_up_closer(self):
        model = train_static(synthetic_corpus(), quick_config(epochs=200, learning_rate=0.005))
        assert cosine(model, "db", "sql") > cosine(model, "db", "cat")

    def test_skipgram_learns_the_same_contrast(self):
        model = train_static(
            synthetic_corpus(), quick_config(mode="skipgram", epochs=200, learning_rate=0.005)
        )
        assert cosine(model, "db", "sql") > cosine(model, "db", "cat")

    def test_single_token_sentences_give_no_pairs(self):
        corpus = UnlabeledCorpus(documents=["hello", "world", "hello"])
        with pytest.raises(ValueError, match="pairs"):
            train_static(corpus, quick_config(epochs=1))

    def test_same_seed_reproduces_bitwise(self):
        a = train_static(synthetic_corpus(10), quick_config(epochs=3))
        b = train_static(synthetic_corpus(10), quick_config(epochs=3))
        np.testing.assert_array_equal(a.vectors_in, b.vectors_in)
        np.testing.assert_array_equal(a.vectors_out, b.vectors_out)

    def test_skipgram_same_seed_reproduces_bitwise(self):
        a = train_static(synthetic_corpus(10), quick_config(mode="skipgram", epochs=3))
        b = train_static(synthetic_corpus(10), quick_config(mode="skipgram", epochs=3))
        np.testing.assert_array_equal(a.vectors_in, b.vectors_in)
        np.testing.assert_array_equal(a.vectors_out, b.vectors_out)

    def test_different_seed_differs(self):
        a = train_static(synthetic_corpus(10), quick_config(epochs=3, seed=1))
        b = train_static(synthetic_corpus(10), quick_config(epochs=3, seed=2))
        assert not np.array_equal(a.vectors_in, b.vectors_in)

    def test_frozen_minibatch_loss_decreases_over_first_ten_epochs(self):
        corpus = synthetic_corpus()
        trajectory = []
        state = {}

        def on_epoch(model, epoch):
            if "batch" not in state:
                state["batch"] = make_frozen_batch(model, corpus, seed=3)
            trajectory.append(frozen_batch_loss(model, state["batch"]))

        train_static(corpus, quick_config(epochs=10), epoch_callback=on_epoch)
        assert len(trajectory) == 10
        assert all(later < earlier for earlier, later in zip(trajectory, trajectory[1:]))

    def test_skipgram_frozen_batch_pairs_a_center_with_one_context_word(self):
        corpus = synthetic_corpus(10)
        config = quick_config(mode="skipgram", epochs=1, window=2)
        model = train_static(corpus, config)
        sentences = _sentence_ids([clean_text(doc) for doc in corpus.documents], model.vocabulary)
        near = {(s[i], s[j]) for s in sentences for i in range(len(s)) for j in range(len(s))
                if 0 < abs(i - j) <= config.window}
        hidden, mask, targets, negatives = make_frozen_batch(model, corpus, seed=3, limit=40)
        assert hidden.shape == mask.shape == (40, 1) and mask.all()
        assert all(pair in near for pair in zip(hidden[:, 0].tolist(), targets.tolist()))
        assert negatives.shape == (40, config.negatives)

    def test_frozen_batch_below_limit_holds_every_pair_with_one_draw_each(self):
        corpus = UnlabeledCorpus(documents=["db sql cache", "solo", "db cache"])
        model = train_static(corpus, quick_config(epochs=1, window=1))
        hidden, mask, targets, negatives = make_frozen_batch(model, corpus, seed=3)
        ids = model.vocabulary.index
        assert targets.tolist() == [ids[w] for w in ("db", "sql", "cache", "db", "cache")]
        assert [row[keep].tolist() for row, keep in zip(hidden, mask)] == [
            [ids["sql"]], [ids["db"], ids["cache"]], [ids["sql"]], [ids["cache"]], [ids["db"]]]
        # the uniforms of one draw per pair, in pair order
        vocab = model.vocabulary
        cumulative = _noise_distribution(len(vocab), {ids[t]: c for t, c in vocab.counts.items()})
        rng = RngStream(3)
        expected = [_draw_noise(rng, cumulative, model.config.negatives) for _ in targets]
        np.testing.assert_array_equal(negatives, expected)

    def test_frozen_batch_without_pairs_is_rejected(self):
        model = train_static(UnlabeledCorpus(documents=["db sql"]), quick_config(epochs=1))
        with pytest.raises(ValueError, match="pairs"):
            make_frozen_batch(model, UnlabeledCorpus(documents=["db", "sql"]), seed=3)

    @pytest.mark.parametrize("mode", ["cbow", "skipgram"])
    def test_frozen_batch_loss_is_the_mean_loss_per_pair(self, mode):
        corpus = synthetic_corpus(10)
        model = train_static(corpus, quick_config(mode=mode, epochs=2))
        hidden, mask, targets, negatives = make_frozen_batch(model, corpus, seed=3)
        negatives[::3, 0] = targets[::3]
        expected = []
        for ids, keep, target, drawn in zip(hidden, mask, targets, negatives):
            h = model.vectors_in[ids[keep]].mean(axis=0)
            loss = np.logaddexp(0.0, -h @ model.vectors_out[target])
            for negative in drawn[drawn != target]:
                loss += np.logaddexp(0.0, h @ model.vectors_out[negative])
            expected.append(loss)
        value = frozen_batch_loss(model, (hidden, mask, targets, negatives))
        assert value == pytest.approx(np.mean(expected), rel=1e-12)

    def test_a_negative_equal_to_its_target_adds_nothing(self):
        corpus = synthetic_corpus(10)
        model = train_static(corpus, quick_config(epochs=2))
        hidden, mask, targets, negatives = make_frozen_batch(model, corpus, seed=3)
        hits = np.column_stack([targets, negatives[:, 1:]])
        assert (frozen_batch_loss(model, (hidden, mask, targets, hits))
                == frozen_batch_loss(model, (hidden, mask, targets, negatives[:, 1:])))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            quick_config(mode="glove")
        with pytest.raises(ValueError):
            quick_config(window=0)
        with pytest.raises(ValueError):
            quick_config(epochs=0)
        with pytest.raises(ValueError, match="min_count"):
            quick_config(min_count=0)

    def test_all_values_finite(self):
        model = train_static(synthetic_corpus(10), quick_config(epochs=5))
        assert np.all(np.isfinite(model.vectors_in))
        assert np.all(np.isfinite(model.vectors_out))


class TestWordVocab:
    def test_count_then_lexicographic_order(self):
        model = train_static(UnlabeledCorpus(documents=["db db sql"]), quick_config(epochs=1))
        assert model.vocabulary.tokens == [PAD_WORD, UNK_WORD, "db", "sql"]

    def test_tie_broken_lexicographically(self):
        model = train_static(UnlabeledCorpus(documents=["beta alpha", "alpha beta"]), quick_config(epochs=1))
        assert model.vocabulary.tokens[2:] == ["alpha", "beta"]

    def test_min_count_filters(self):
        corpus = UnlabeledCorpus(documents=["db cache db sql cache"])
        model = train_static(corpus, quick_config(epochs=1, min_count=2))
        assert model.vocabulary.tokens == [PAD_WORD, UNK_WORD, "cache", "db"]
        assert model.vocabulary.counts == {"cache": 2, "db": 2}

    def test_specials_have_smallest_indices(self):
        model = train_static(UnlabeledCorpus(documents=["db sql"]), quick_config(epochs=1))
        assert model.vocabulary.index[PAD_WORD] == 0
        assert model.vocabulary.index[UNK_WORD] == 1

    def test_no_word_reaching_min_count_rejected(self):
        with pytest.raises(ValueError, match="min_count=3"):
            train_static(UnlabeledCorpus(documents=["db sql"]), quick_config(epochs=1, min_count=3))

    def test_empty_after_cleaning_rejected(self):
        with pytest.raises(ValueError, match="empty after cleaning"):
            train_static(UnlabeledCorpus(documents=["the of and"]), quick_config(epochs=1))


class TestFinetuneStatic:
    def test_new_token_joins_vocabulary(self):
        base = train_static(synthetic_corpus(10), quick_config(epochs=2))
        before = len(base.vocabulary)
        tuned = finetune_static(base, UnlabeledCorpus(documents=["sqoop moves data", "sqoop loads db"]), extra_epochs=2)
        grown = [t for t in tuned.vocabulary.tokens if t not in base.vocabulary.index]
        assert "sqoop" in grown
        assert len(tuned.vocabulary) == before + len(grown)
        vec = embed_word(tuned, "sqoop")
        assert vec is not None and np.all(np.isfinite(vec))

    def test_new_words_follow_the_old_by_count_then_word(self):
        base = train_static(UnlabeledCorpus(documents=["db sql"]), quick_config(epochs=1))
        extra = UnlabeledCorpus(documents=["zeta alpha zeta db", "alpha zeta beta"])
        tuned = finetune_static(base, extra, extra_epochs=1)
        assert tuned.vocabulary.tokens == [PAD_WORD, UNK_WORD, "db", "sql", "zeta", "alpha", "beta"]
        assert tuned.vocabulary.counts == {"db": 2, "sql": 1, "zeta": 3, "alpha": 2, "beta": 1}

    def test_base_only_words_bitwise_unchanged(self):
        base = train_static(synthetic_corpus(10), quick_config(epochs=2))
        tuned = finetune_static(base, UnlabeledCorpus(documents=["db sql sqoop pipeline"]), extra_epochs=3)
        for word in ("cat", "dog", "park"):  # absent from the fine-tuning corpus
            idx_old = base.vocabulary.index[word]
            idx_new = tuned.vocabulary.index[word]
            assert idx_old == idx_new
            np.testing.assert_array_equal(base.vectors_in[idx_old], tuned.vectors_in[idx_new])
            np.testing.assert_array_equal(base.vectors_out[idx_old], tuned.vectors_out[idx_new])

    def test_dimension_and_entries_preserved(self):
        base = train_static(synthetic_corpus(10), quick_config(epochs=2))
        tuned = finetune_static(base, UnlabeledCorpus(documents=["db sql new-term flow"]), extra_epochs=1)
        assert tuned.dimension == base.dimension
        assert set(base.vocabulary.tokens) <= set(tuned.vocabulary.tokens)

    def test_empty_after_cleaning_rejected(self):
        base = train_static(synthetic_corpus(10), quick_config(epochs=1))
        with pytest.raises(ValueError, match="empty"):
            finetune_static(base, UnlabeledCorpus(documents=["the of and"]), extra_epochs=1)

    def test_fewer_than_one_extra_epoch_rejected(self):
        base = train_static(UnlabeledCorpus(documents=["db sql"]), quick_config(epochs=1))
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            finetune_static(base, UnlabeledCorpus(documents=["db sql"]), extra_epochs=0)

    def test_deterministic_under_seed(self):
        base = train_static(synthetic_corpus(10), quick_config(epochs=2))
        extra = UnlabeledCorpus(documents=["db sql sqoop", "sqoop moves rows"])
        a = finetune_static(base, extra, extra_epochs=2, seed=5)
        b = finetune_static(base, extra, extra_epochs=2, seed=5)
        np.testing.assert_array_equal(a.vectors_in, b.vectors_in)

    def test_deterministic_under_seed_on_a_skipgram_base(self):
        base = train_static(synthetic_corpus(10), quick_config(mode="skipgram", epochs=2))
        extra = UnlabeledCorpus(documents=["db sql sqoop", "sqoop moves rows"])
        a = finetune_static(base, extra, extra_epochs=2, seed=5)
        b = finetune_static(base, extra, extra_epochs=2, seed=5)
        np.testing.assert_array_equal(a.vectors_in, b.vectors_in)
        np.testing.assert_array_equal(a.vectors_out, b.vectors_out)

    def test_base_only_words_bitwise_unchanged_on_a_skipgram_base(self):
        base = train_static(synthetic_corpus(10), quick_config(mode="skipgram", epochs=2))
        tuned = finetune_static(base, UnlabeledCorpus(documents=["db sql sqoop pipeline"]), extra_epochs=3)
        for word in ("cat", "dog", "park"):  # absent from the fine-tuning corpus
            idx = base.vocabulary.index[word]
            assert tuned.vocabulary.index[word] == idx
            np.testing.assert_array_equal(base.vectors_in[idx], tuned.vectors_in[idx])
            np.testing.assert_array_equal(base.vectors_out[idx], tuned.vectors_out[idx])


class TestChunkedUpdates:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_context_windows_match_the_sentence_slices(self, data):
        """Each position's valid context, in order, is the slice definition
        `sent[max(0, i - reach):i] + sent[i + 1:i + reach + 1]`, for chunks
        that start anywhere and may span several sentences."""
        window = data.draw(st.integers(1, 6))
        lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
        bounds = np.cumsum([0] + lengths)
        sentences = [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        flat, first, stop = _flatten(sentences)
        start = data.draw(st.integers(0, len(flat) - 1))
        positions = np.arange(start, data.draw(st.integers(start + 1, len(flat))))
        reach = np.array(data.draw(st.lists(
            st.integers(1, window), min_size=len(positions), max_size=len(positions))))

        index, valid = _context_windows(first, stop, positions, reach, window)

        assert index.shape == valid.shape == (len(positions), 2 * window)
        assert 0 <= index.min() and index.max() < len(flat)
        owners = [(sent, i) for sent in sentences for i in range(len(sent))]
        for row, position in enumerate(positions):
            sent, i = owners[position]
            r = int(reach[row])
            assert flat[index[row][valid[row]]].tolist() == sent[max(0, i - r):i] + sent[i + 1:i + r + 1]

    def test_chunk_without_context_is_counted_but_not_trained(self):
        """A whole chunk of one-word sentences updates nothing, and the
        words only ever seen alone keep their initial input vectors."""
        config = quick_config(epochs=2)
        lonely = [f"solo{i}" for i in range(CHUNK + 6)]
        model = train_static(UnlabeledCorpus(documents=lonely + ["db sql"]), config)
        d = config.dimension
        initial = RngStream(config.seed).child("init").uniform(
            -0.5 / d, 0.5 / d, (len(model.vocabulary), d))
        rows = [model.vocabulary.index[w] for w in lonely]
        np.testing.assert_array_equal(model.vectors_in[rows], initial[rows])
        assert not np.array_equal(model.vectors_in[model.vocabulary.index["db"]],
                                  initial[model.vocabulary.index["db"]])

    def test_pairs_of_one_sentence(self):
        flat, first, stop = _flatten([[10, 11, 12]])
        positions = np.arange(3)
        index, valid = _context_windows(first, stop, positions, np.ones(3, dtype=np.int64), 1)
        rows, hidden, mask, targets = _pairs("cbow", flat, positions, index, valid)
        assert rows.tolist() == [0, 1, 2] and targets.tolist() == [10, 11, 12]
        assert [row[keep].tolist() for row, keep in zip(hidden, mask)] == [[11], [10, 12], [11]]
        # skip-gram: in position order, then offset order
        rows, hidden, mask, targets = _pairs("skipgram", flat, positions, index, valid)
        assert rows.tolist() == [0, 1, 1, 2] and mask.shape == (4, 1) and mask.all()
        assert list(zip(hidden[:, 0].tolist(), targets.tolist())) == [(10, 11), (11, 10), (11, 12), (12, 11)]

    def test_scatter_add_sums_repeated_ids_like_add_at(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 6, 40)
        rows = rng.normal(size=(40, 3))
        table = rng.normal(size=(8, 3))
        expected = table.copy()
        np.add.at(expected, ids, rows)
        _scatter_add(table, ids, rows)
        np.testing.assert_allclose(table, expected, rtol=1e-12, atol=1e-12)


class FixedDraws:
    """An rng stub whose every uniform draw is `value`."""

    def __init__(self, value: float):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


class TestNoiseDraws:
    # ids 0-1 are the zero-weight specials, 2-8 seven words seen once, and
    # 9-10 a zero-weight tail, as fine-tuning leaves the words its corpus lacks
    VOCAB, WORDS = 11, range(2, 9)

    def cumulative(self):
        cumulative = _noise_distribution(self.VOCAB, {i: 1 for i in self.WORDS})
        # seven equal weights sum, after rounding, to just below 1.0
        assert cumulative[-1] < np.nextafter(1.0, 0.0)
        return cumulative

    @pytest.mark.parametrize("value,expected", [(0.0, 2), (np.nextafter(1.0, 0.0), 8)],
                             ids=["zero", "below-one"])
    def test_every_draw_is_a_word_of_nonzero_weight(self, value, expected):
        cumulative = self.cumulative()
        assert _draw_noise(FixedDraws(value), cumulative, 3).tolist() == [expected] * 3
        vout = np.zeros((self.VOCAB, 2))
        rows = 4
        _negative_sampling_step(vout, np.ones((rows, 2)), np.full(rows, 5), np.full(rows, 0.1),
                                FixedDraws(value), cumulative, negatives=3)
        touched = np.flatnonzero(np.abs(vout).sum(axis=1))
        assert touched.tolist() == sorted({5, expected})


class TestEmbedWord:
    def test_known_word_returns_its_row(self):
        model = tiny_model(["red", "blue"], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(embed_word(model, "red"), [1.0, 2.0])

    def test_unknown_and_pad_return_marker(self):
        model = tiny_model(["red"], [[1.0, 2.0]])
        assert embed_word(model, "plaid") is None
        assert embed_word(model, PAD_WORD) is None
        assert embed_word(model, UNK_WORD) is None


class TestCosine:
    def test_a_word_out_of_vocabulary_is_a_key_error(self):
        model = tiny_model(["red"], [[1.0, 2.0]])
        with pytest.raises(KeyError, match="plaid"):
            cosine(model, "red", "plaid")

    def test_a_zero_vector_has_cosine_zero(self):
        model = tiny_model(["red", "blank"], [[1.0, 2.0], [0.0, 0.0]])
        assert cosine(model, "red", "blank") == 0.0


def resaved(path, edit):
    """The static checkpoint at `path` loaded, changed by `edit` and saved again."""
    params, meta, sections = load_checkpoint(path)
    edit(params, meta, sections)
    save_checkpoint(path, params, meta=meta, sections=sections)
    return path


class TestStaticCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = train_static(synthetic_corpus(10), quick_config(epochs=2))
        path = tmp_path / "static.ckpt"
        save_static(model, path)
        loaded = load_static(path)
        np.testing.assert_array_equal(loaded.vectors_in, model.vectors_in)
        np.testing.assert_array_equal(loaded.vectors_out, model.vectors_out)
        assert loaded.vocabulary.tokens == model.vocabulary.tokens
        assert loaded.config == model.config

    def test_vocab_section_format(self, tmp_path):
        model = tiny_model(["red"], [[1.0, 2.0]])
        path = tmp_path / "static.ckpt"
        save_static(model, path)
        _, _, sections = load_checkpoint(path)
        lines = sections["vocab"].strip().splitlines()
        assert lines[0] == f"{PAD_WORD}\t0\t0"
        assert lines[2] == "red\t1\t2"

    @pytest.mark.parametrize("edit,message", [
        (lambda params, meta, sections: params.pop("vectors_out"),
         "needs the parameters vectors_in and vectors_out"),
        (lambda params, meta, sections: sections.update(
            vocab="".join(sections["vocab"].splitlines(keepends=True)[:-1])),
         "must be [|]V[|] x d"),
        (lambda params, meta, sections: sections.update(
            vocab=sections["vocab"].replace("blue\t1\t3", "red\t1\t3")),
         "tokens must be unique"),
    ], ids=["no-vectors-out", "vocab-rows-unlike-tables", "duplicate-token"])
    def test_inconsistent_checkpoint_is_refused(self, tmp_path, edit, message):
        path = tmp_path / "static.ckpt"
        save_static(tiny_model(["red", "blue"], [[1.0, 2.0], [3.0, 4.0]]), path)
        with pytest.raises(ValueError, match=message):
            load_static(resaved(path, edit))

    def test_an_integer_learning_rate_in_the_meta_is_accepted(self, tmp_path):
        path = tmp_path / "static.ckpt"
        save_static(tiny_model(["red"], [[1.0, 2.0]]), path)
        resaved(path, lambda params, meta, sections: meta["config"].update(learning_rate=1))
        assert load_static(path).config.learning_rate == 1

    def test_wrong_kind_rejected(self, tmp_path):
        from storypointer.kernel import parameter

        path = tmp_path / "other.ckpt"
        save_checkpoint(path, {"w": parameter(np.ones(2))}, meta={"kind": "other"})
        with pytest.raises(ValueError):
            load_static(path)
