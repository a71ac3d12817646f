"""Subword vocabulary induction and greedy tokenization checks."""

import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storypointer.corpus import UnlabeledCorpus, Vocabulary, clean_text, tokenize_words
from storypointer.wordpiece import (
    CLS_ID,
    CONTINUATION,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    UNK_ID,
    build_wordpiece_vocab,
    piece_ids,
    tokenize_word,
    tokenize_wordpiece,
)


def corpus_of(*documents):
    return UnlabeledCorpus(documents=list(documents))


def char_vocab(*words):
    """Vocabulary holding the specials plus every character form of `words`."""
    pieces = list(SPECIALS)
    for word in words:
        for piece in [word[0]] + [CONTINUATION + c for c in word[1:]]:
            if piece not in pieces:
                pieces.append(piece)
    return pieces


class TestVocabularyLayout:
    def test_specials_occupy_first_five_indices(self):
        vocab = build_wordpiece_vocab(corpus_of("alpha beta", "beta gamma"), size=40)
        assert tuple(vocab.tokens[:5]) == SPECIALS
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)
        assert vocab.index["[PAD]"] == 0
        assert vocab.index["[MASK]"] == 4

    def test_rejects_vocab_without_specials_prefix(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"], SPECIALS)

    def test_rejects_duplicate_pieces(self):
        with pytest.raises(ValueError):
            Vocabulary(list(SPECIALS) + ["x", "x"], SPECIALS)

    def test_character_base_in_first_occurrence_order(self):
        vocab = build_wordpiece_vocab(corpus_of("cab"), size=9)
        assert vocab.tokens[5:8] == ["c", "##a", "##b"]


class TestVocabularyInduction:
    def test_single_word_corpus_learns_leading_bigram(self):
        # all candidate pairs of "aaab" tie at count 1, so the merge
        # closest to the start of the first word wins
        vocab = build_wordpiece_vocab(corpus_of("aaab"), size=10)
        assert "aa" in vocab.index
        assert len(vocab) == 10

    def test_size_below_character_base_is_rejected(self):
        with pytest.raises(ValueError):
            build_wordpiece_vocab(corpus_of("abcdef"), size=8)

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(ValueError):
            build_wordpiece_vocab(corpus_of("..."), size=30)

    def test_frequent_pair_merges_before_rare_pair(self):
        vocab = build_wordpiece_vocab(corpus_of("aa aa aa zz"), size=11)
        assert vocab.tokens.index("aa") < vocab.tokens.index("zz")

    def test_growth_stops_once_words_are_fused(self):
        vocab = build_wordpiece_vocab(corpus_of("ab"), size=50)
        # specials + {a, ##b} + the single possible merge
        assert len(vocab) == 8
        assert "ab" in vocab.index

    def test_induction_is_deterministic(self):
        docs = ("rebuild the index", "rebuild the cache", "drop the cache")
        first = build_wordpiece_vocab(corpus_of(*docs), size=60)
        second = build_wordpiece_vocab(corpus_of(*docs), size=60)
        assert first.tokens == second.tokens

    def test_merges_reach_whole_common_words(self):
        docs = ["deploy service"] * 8 + ["restart service"] * 3
        vocab = build_wordpiece_vocab(corpus_of(*docs), size=80)
        assert "service" in vocab.index
        assert "deploy" in vocab.index


def corpus_words(corpus):
    """Each distinct cleaned word of `corpus` with its count, in first-seen order."""
    return Counter(word for doc in corpus.documents for word in tokenize_words(clean_text(doc)))


def reference_build_vocab(corpus, size):
    """Induction as it ran before pair counts were kept across merges: each
    merge recounts every pair of every word and re-segments every word.
    Returns the list of pieces."""
    word_counts = corpus_words(corpus)
    if not word_counts:
        raise ValueError("corpus has no words after cleaning")
    pieces = char_vocab(*word_counts)
    if size < len(pieces):
        raise ValueError(f"size {size} cannot cover specials + character base")
    known = set(pieces)
    segmentation = {w: [w[0]] + [CONTINUATION + c for c in w[1:]] for w in word_counts}
    while len(pieces) < size:
        pair_counts, first_seen = {}, {}
        for word_rank, (word, count) in enumerate(word_counts.items()):
            seg = segmentation[word]
            for pos in range(len(seg) - 1):
                pair = (seg[pos], seg[pos + 1])
                pair_counts[pair] = pair_counts.get(pair, 0) + count
                first_seen.setdefault(pair, (word_rank, pos))
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], first_seen[p]))
        merged = best[0] + best[1][len(CONTINUATION):]
        for word, seg in segmentation.items():
            out, i = [], 0
            while i < len(seg):
                if seg[i:i + 2] == list(best):
                    out.append(merged)
                    i += 2
                else:
                    out.append(seg[i])
                    i += 1
            segmentation[word] = out
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
    return pieces


def documents(words):
    """Corpora of one to five documents, each one to six of `words`."""
    return st.lists(st.lists(words, min_size=1, max_size=6).map(" ".join),
                    min_size=1, max_size=5)


# ties are common over two to four letters
SMALL_ALPHABET = st.sampled_from(["ab", "abc", "abcd"]).flatmap(
    lambda alphabet: documents(st.text(alphabet=alphabet, min_size=1, max_size=8)))
# runs such as "aaaa" and "abab", where one pair overlaps itself
REPEATS = documents(st.builds(operator.mul, st.sampled_from(["a", "b", "ab", "ba", "aab", "abb"]),
                              st.integers(2, 5)))
# words sharing substrings, where one piece might seem reachable by two
# pairs; a merge that rebuilt a known piece would make the Vocabulary
# refuse the duplicate, so these corpora would fail loudly
SHARED_UNITS = documents(st.lists(st.sampled_from(["ab", "bc", "abc", "ca", "b"]),
                                  min_size=1, max_size=4).map("".join))


class TestIncrementalInduction:
    """The induction keeps its pair counts across merges and must give the
    pieces of the recount-everything reference, piece for piece."""

    @given(docs=SMALL_ALPHABET | REPEATS | SHARED_UNITS,
           extra=st.integers(0, 40) | st.just(10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_same_pieces_as_the_reference(self, docs, extra):
        corpus = corpus_of(*docs)
        words = corpus_words(corpus)
        if not words:
            with pytest.raises(ValueError):
                build_wordpiece_vocab(corpus, size=10 ** 6)
            return
        minimum = len(char_vocab(*words))
        with pytest.raises(ValueError):
            build_wordpiece_vocab(corpus, size=minimum - 1)
        size = minimum + extra  # 10**6 is past saturation
        assert build_wordpiece_vocab(corpus, size).tokens == reference_build_vocab(corpus, size)

    def test_tie_break_reads_positions_after_earlier_merges(self):
        # "##b ##b" and "##b ##c" tie at 3, and "##b ##b" is first, so "##bb"
        # merges: b ##bb ##bb ##c ##b ##c ##b ##c. Now "##c ##b" and
        # "##b ##c" tie at 2. In the character split "##b ##c" came first
        # (position 4 against 5), but the merge moved "##c ##b" to position
        # 3 and consumed the first "##b ##c", so "##cb" wins.
        corpus = corpus_of("bbbbbcbcbc")
        vocab = build_wordpiece_vocab(corpus, size=10)
        assert vocab.tokens[5:] == ["b", "##b", "##c", "##bb", "##cb"]
        assert vocab.tokens == reference_build_vocab(corpus, 10)
        assert build_wordpiece_vocab(corpus, 10 ** 6).tokens == reference_build_vocab(corpus, 10 ** 6)


class TestGreedyTokenizer:
    def test_longest_match_split(self):
        pieces = char_vocab("embeddings") + ["em", "##bed", "##ding"]
        vocab = Vocabulary(pieces, SPECIALS)
        assert tokenize_word(vocab, "embeddings") == ["em", "##bed", "##ding", "##s"]

    def test_whole_word_in_vocab_is_one_piece(self):
        vocab = Vocabulary(char_vocab("cache") + ["cache"], SPECIALS)
        assert tokenize_word(vocab, "cache") == ["cache"]

    def test_uncoverable_word_returns_none(self):
        vocab = Vocabulary(char_vocab("abc"), SPECIALS)
        assert tokenize_word(vocab, "xyz") is None

    def test_empty_and_oversized_words_return_none(self):
        vocab = Vocabulary(char_vocab("ab"), SPECIALS)
        assert tokenize_word(vocab, "") is None
        assert tokenize_word(vocab, "a" * 500) is None

    def test_tokenizer_matches_induced_segmentation_coverage(self):
        docs = ("retry the upload", "retry the download")
        vocab = build_wordpiece_vocab(corpus_of(*docs), size=60)
        for word in ("retry", "upload", "download"):
            pieces = tokenize_word(vocab, word)
            assert pieces is not None
            rebuilt = pieces[0] + "".join(p[len(CONTINUATION):] for p in pieces[1:])
            assert rebuilt == word

    def test_save_load_roundtrip(self, tmp_path):
        from storypointer.transformer import (
            TransformerConfig, TransformerModel, load_transformer, save_transformer,
        )

        vocab = build_wordpiece_vocab(corpus_of("alpha beta", "gamma beta, (delta)!"), size=40)
        config = TransformerConfig(layers=1, hidden=8, heads=2, ff=8, max_len=8,
                                   vocab_size=len(vocab))
        path = tmp_path / "encoder.ckpt"
        save_transformer(TransformerModel(config, vocab), path)
        loaded = load_transformer(path).vocab
        assert loaded.tokens == vocab.tokens
        assert loaded.index == vocab.index


class TestSentenceFraming:
    def test_single_text_framing(self):
        vocab = Vocabulary(char_vocab("ab", "cd") + ["ab", "cd"], SPECIALS)
        ids = tokenize_wordpiece(vocab, "ab cd")
        assert ids == [CLS_ID, vocab.index["ab"], vocab.index["cd"], SEP_ID]

    def test_unknown_symbol_becomes_unk(self):
        vocab = build_wordpiece_vocab(corpus_of("plain ascii words only"), size=60)
        ids = tokenize_wordpiece(vocab, "☃")
        assert ids == [CLS_ID, UNK_ID, SEP_ID]

    def test_hyphenated_words_stay_whole_in_split(self):
        assert tokenize_words(clean_text("re-index the DB!")) == ["re-index", "db"]

    @given(
        st.lists(
            st.text(alphabet="abcd", min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_framing_invariants_hold_for_arbitrary_text(self, words):
        vocab = Vocabulary(char_vocab("abcd"), SPECIALS)
        text = " ".join(words)
        ids = tokenize_wordpiece(vocab, text)
        assert ids[0] == CLS_ID
        assert ids[-1] == SEP_ID
        assert ids.count(SEP_ID) == 1
        assert ids[1:-1] == piece_ids(vocab, text)
