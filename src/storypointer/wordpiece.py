"""Subword vocabulary induction and greedy longest-match tokenization.

Vocabulary layout: five reserved tokens first, then every character
form seen in the corpus (word-initial "c" and continuation "##c"), then
merged pieces added highest-frequency-first. Ties between candidate
merges break toward the earliest first occurrence in corpus scan order,
which keeps induction deterministic without a tie-break RNG.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import UnlabeledCorpus, clean_text

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
SPECIALS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)
N_SPECIALS = len(SPECIALS)  # ids below this are specials; the rest are real pieces
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(N_SPECIALS)
CONTINUATION = "##"
MAX_WORD_CHARS = 200  # longer words are uncoverable and become [UNK]

# words are runs of the cleaned alphabet; any other non-space character
# stands alone so uncoverable input degrades to [UNK] instead of vanishing
_WORD_SPLIT = re.compile(r"[a-z0-9\-]+|[^\sa-z0-9\-]")


class WordPieceVocab:
    def __init__(self, pieces: Sequence[str]):
        pieces = list(pieces)
        if tuple(pieces[:len(SPECIALS)]) != SPECIALS:
            raise ValueError(f"vocabulary must start with the specials {SPECIALS}")
        self.pieces = pieces
        self.index: Dict[str, int] = {p: i for i, p in enumerate(pieces)}
        if len(self.index) != len(pieces):
            raise ValueError("duplicate pieces in vocabulary")

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.index

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.pieces) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "WordPieceVocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([line for line in lines if line != ""])


def split_words(text: str) -> List[str]:
    return _WORD_SPLIT.findall(text.lower())


def _char_pieces(word: str) -> List[str]:
    return [word[0]] + [CONTINUATION + c for c in word[1:]]


def build_wordpiece_vocab(corpus: UnlabeledCorpus, size: int) -> WordPieceVocab:
    """Frequency-greedy merge induction up to `size` pieces.

    Documents are cleaned first, so the induced pieces cover exactly the
    alphabet the pipeline's tokenizer will see. If every word fuses into
    a single piece before `size` is reached, the vocabulary simply stops
    growing.
    """
    word_counts: Dict[str, int] = {}
    for doc in corpus.documents:
        for word in split_words(clean_text(doc)):
            word_counts[word] = word_counts.get(word, 0) + 1
    if not word_counts:
        raise ValueError("corpus has no words after cleaning")

    char_base: List[str] = []
    seen = set()
    for word in word_counts:
        for piece in _char_pieces(word):
            if piece not in seen:
                seen.add(piece)
                char_base.append(piece)
    minimum = len(SPECIALS) + len(char_base)
    if size < minimum:
        raise ValueError(f"size {size} cannot cover specials + character base ({minimum})")

    pieces = list(SPECIALS) + char_base
    known = set(pieces)
    segmentation: Dict[str, List[str]] = {w: _char_pieces(w) for w in word_counts}

    while len(pieces) < size:
        pair_counts: Dict[Tuple[str, str], int] = {}
        first_seen: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for word_rank, (word, count) in enumerate(word_counts.items()):
            seg = segmentation[word]
            for pos in range(len(seg) - 1):
                pair = (seg[pos], seg[pos + 1])
                pair_counts[pair] = pair_counts.get(pair, 0) + count
                if pair not in first_seen:
                    first_seen[pair] = (word_rank, pos)
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], first_seen[p]))
        merged = best[0] + best[1][len(CONTINUATION):]
        for word, seg in segmentation.items():
            segmentation[word] = _apply_merge(seg, best, merged)
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
    return WordPieceVocab(pieces)


def _apply_merge(seg: List[str], pair: Tuple[str, str], merged: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(seg):
        if i + 1 < len(seg) and seg[i] == pair[0] and seg[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(seg[i])
            i += 1
    return out


def tokenize_word(vocab: WordPieceVocab, word: str) -> Optional[List[str]]:
    """Greedy longest-match split; None means the word is uncoverable."""
    if not word or len(word) > MAX_WORD_CHARS:
        return None
    out: List[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = CONTINUATION + sub
            if sub in vocab.index:
                found = sub
                break
            end -= 1
        if found is None:
            return None
        out.append(found)
        start = end
    return out


def piece_ids(vocab: WordPieceVocab, text: str) -> List[int]:
    """Unframed piece ids of cleaned text; each uncoverable word is one [UNK]."""
    ids: List[int] = []
    for word in split_words(text):
        pieces = tokenize_word(vocab, word)
        if pieces is None:
            ids.append(UNK_ID)
        else:
            ids.extend(vocab.index[p] for p in pieces)
    return ids


def tokenize_wordpiece(
    vocab: WordPieceVocab, text: str, pair: Optional[str] = None
) -> Tuple[List[int], List[int]]:
    """Token ids and segment ids framed as [CLS] A [SEP] (+ B [SEP])."""
    ids = [CLS_ID] + piece_ids(vocab, text) + [SEP_ID]
    segments = [0] * len(ids)
    if pair is not None:
        second = piece_ids(vocab, pair) + [SEP_ID]
        ids.extend(second)
        segments.extend([1] * len(second))
    return ids, segments
