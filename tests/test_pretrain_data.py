"""Sentence pairing and token masking for encoder pretraining."""

import numpy as np
import pytest

from storypointer.corpus import UnlabeledCorpus
from storypointer import pretrain_data
from storypointer.kernel import RngStream
from storypointer.pretrain_data import (
    PretrainExample,
    create_pretraining_data,
    mask_tokens,
    split_sentences,
)
from storypointer.wordpiece import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    build_wordpiece_vocab,
)

TOPICS = (
    ["query", "index", "table", "join", "schema", "rows", "merge", "cache"],
    ["deploy", "rollback", "release", "pipeline", "build", "stage", "server", "patch"],
)


def synthetic_documents(n_docs=6, sentences_per_doc=4):
    docs = []
    for d in range(n_docs):
        words = TOPICS[d % 2]
        sentences = []
        for s in range(sentences_per_doc):
            picks = [words[(d + s + j) % len(words)] for j in range(4)]
            sentences.append(" ".join(picks))
        docs.append(". ".join(sentences) + ".")
    return UnlabeledCorpus(documents=docs)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_documents()


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_wordpiece_vocab(corpus, size=120)


class TestSentenceSplitting:
    def test_splits_on_periods_and_newlines(self):
        got = split_sentences("fix the build. retry it\nthen ship")
        assert got == ["fix the build", "retry it", "then ship"]

    def test_drops_empty_fragments(self):
        assert split_sentences("one...two.\n\n.") == ["one", "two"]

    def test_blank_document_yields_nothing(self):
        assert split_sentences("  \n . ") == []


class TestMasking:
    def original(self, n_real=20):
        # [CLS] real... [SEP] real... [SEP] [PAD] [PAD]
        half = n_real // 2
        ids = [CLS_ID] + list(range(10, 10 + half)) + [SEP_ID]
        ids += list(range(40, 40 + n_real - half)) + [SEP_ID, PAD_ID, PAD_ID]
        return ids

    def test_count_is_half_up_round_of_rate(self):
        ids = self.original(n_real=20)
        _, positions, _ = mask_tokens(ids, 200, 0.15, RngStream(3))
        assert len(positions) == 3  # round(0.15 * 20)

    def test_at_least_one_position_is_masked(self):
        ids = [CLS_ID, 17, SEP_ID]
        _, positions, _ = mask_tokens(ids, 200, 0.01, RngStream(0))
        assert positions == [1]  # the single real token is still chosen

    def test_specials_are_never_selected(self):
        ids = self.original()
        special_positions = {i for i, t in enumerate(ids) if t < 5}
        for seed in range(30):
            _, positions, labels = mask_tokens(ids, 200, 0.3, RngStream(seed))
            assert special_positions.isdisjoint(positions)
            assert all(label >= 5 for label in labels)

    def test_labels_record_original_tokens(self):
        ids = self.original()
        masked, positions, labels = mask_tokens(ids, 200, 0.4, RngStream(9))
        for pos, label in zip(positions, labels):
            assert ids[pos] == label
        untouched = set(range(len(ids))) - set(positions)
        for pos in untouched:
            assert masked[pos] == ids[pos]

    def test_pure_mask_share_replaces_all_with_mask(self, monkeypatch):
        monkeypatch.setattr(pretrain_data, "MASK_TOKEN_SHARE", 1.0)
        monkeypatch.setattr(pretrain_data, "RANDOM_TOKEN_SHARE", 0.0)
        ids = self.original()
        masked, positions, _ = mask_tokens(ids, 200, 0.5, RngStream(4))
        assert all(masked[pos] == MASK_ID for pos in positions)

    def test_pure_random_share_avoids_specials(self, monkeypatch):
        monkeypatch.setattr(pretrain_data, "MASK_TOKEN_SHARE", 0.0)
        monkeypatch.setattr(pretrain_data, "RANDOM_TOKEN_SHARE", 1.0)
        ids = self.original()
        masked, positions, _ = mask_tokens(ids, 50, 0.5, RngStream(4))
        for pos in positions:
            assert 5 <= masked[pos] < 50

    def test_sequence_without_real_tokens_masks_nothing(self):
        masked, positions, labels = mask_tokens(
            [CLS_ID, SEP_ID, PAD_ID], 50, 0.15, RngStream(1)
        )
        assert positions == [] and labels == []
        assert masked == [CLS_ID, SEP_ID, PAD_ID]

    def test_replacement_mix_is_roughly_80_10_10(self):
        ids = [CLS_ID] + list(range(5, 85)) + [SEP_ID]
        as_mask = as_random = kept = 0
        for seed in range(120):
            masked, positions, labels = mask_tokens(ids, 500, 0.3, RngStream(seed))
            for pos, label in zip(positions, labels):
                if masked[pos] == MASK_ID:
                    as_mask += 1
                elif masked[pos] == label:
                    kept += 1
                else:
                    as_random += 1
        total = as_mask + as_random + kept
        assert 0.75 < as_mask / total < 0.85
        assert 0.06 < as_random / total < 0.145
        assert 0.06 < kept / total < 0.145


class TestExampleGeneration:
    def test_examples_are_deterministic_per_seed(self, corpus, vocab):
        first = create_pretraining_data(corpus, vocab, seed=11, n_examples=40)
        second = create_pretraining_data(corpus, vocab, seed=11, n_examples=40)
        assert first == second
        shifted = create_pretraining_data(corpus, vocab, seed=12, n_examples=40)
        assert first != shifted

    def test_examples_are_framed_and_unpadded(self, corpus, vocab):
        examples = create_pretraining_data(
            corpus, vocab, seed=2, max_len=48, n_examples=30
        )
        for example in examples:
            ids = list(example.token_ids)
            assert len(ids) <= 48
            assert len(example.segment_ids) == len(ids)
            assert ids[0] == CLS_ID
            assert ids[-1] == SEP_ID
            assert ids.count(SEP_ID) == 2
            assert PAD_ID not in ids
            first_sep = ids.index(SEP_ID)
            assert set(example.segment_ids[:first_sep + 1]) == {0}
            assert set(example.segment_ids[first_sep + 1:]) == {1}

    def test_next_sentence_labels_are_mixed(self, corpus, vocab):
        examples = create_pretraining_data(corpus, vocab, seed=5, n_examples=2000)
        share = np.mean([e.is_next for e in examples])
        assert 0.45 < share < 0.55

    def test_masked_fraction_tracks_rate(self, vocab):
        # ten-word sentences give twenty maskable tokens per pair, enough
        # for the rounded count to sit close to the nominal rate
        docs = []
        for d in range(4):
            words = TOPICS[d % 2]
            sentences = [
                " ".join(words[(d + s + j) % len(words)] for j in range(10))
                for s in range(4)
            ]
            docs.append(". ".join(sentences) + ".")
        examples = create_pretraining_data(
            UnlabeledCorpus(documents=docs), vocab, mask_rate=0.15, seed=7,
            n_examples=400,
        )
        masked = sum(len(e.masked_positions) for e in examples)
        maskable = sum(e.maskable_count for e in examples)
        assert 0.13 <= masked / maskable <= 0.17

    def test_maskable_count_reconstructs_premask_total(self):
        original = [CLS_ID, 9, 10, 11, SEP_ID, 12, 13, SEP_ID, PAD_ID]
        for seed in range(25):
            masked, positions, labels = mask_tokens(original, 60, 0.5, RngStream(seed))
            example = PretrainExample(
                token_ids=tuple(masked),
                segment_ids=tuple([0] * len(masked)),
                masked_positions=tuple(positions),
                masked_labels=tuple(labels),
                is_next=True,
            )
            assert example.maskable_count == 5

    def test_long_sentences_are_truncated_to_fit(self, vocab):
        long_a = " ".join(["query index table join"] * 15)
        long_b = " ".join(["deploy release build stage"] * 15)
        corpus = UnlabeledCorpus(
            documents=[f"{long_a}. {long_a}", f"{long_b}. {long_b}"]
        )
        examples = create_pretraining_data(
            corpus, vocab, seed=3, max_len=24, n_examples=10
        )
        for example in examples:
            ids = list(example.token_ids)
            assert len(ids) == 24
            assert ids[-1] == SEP_ID  # truncated pairs fill the window exactly
            assert ids.count(SEP_ID) == 2

    def test_requested_example_count_cycles_anchors(self, corpus, vocab):
        examples = create_pretraining_data(corpus, vocab, seed=1, n_examples=53)
        assert len(examples) == 53

    def test_single_document_corpus_is_rejected(self, vocab):
        lonely = UnlabeledCorpus(documents=["query index. table join. schema rows."])
        with pytest.raises(ValueError):
            create_pretraining_data(lonely, vocab, seed=0)

    def test_single_sentence_documents_are_rejected(self, vocab):
        corpus = UnlabeledCorpus(documents=["query index", "deploy release"])
        with pytest.raises(ValueError):
            create_pretraining_data(corpus, vocab, seed=0)

    def test_out_of_range_mask_rate_is_rejected(self, corpus, vocab):
        with pytest.raises(ValueError):
            create_pretraining_data(corpus, vocab, mask_rate=0.0, seed=0)
        with pytest.raises(ValueError):
            create_pretraining_data(corpus, vocab, mask_rate=1.0, seed=0)

    def test_masked_positions_point_at_real_tokens_only(self, corpus, vocab):
        examples = create_pretraining_data(corpus, vocab, seed=13, n_examples=200)
        for example in examples:
            for pos, label in zip(example.masked_positions, example.masked_labels):
                assert label >= 5
                assert example.token_ids[pos] == MASK_ID or example.token_ids[pos] >= 5
