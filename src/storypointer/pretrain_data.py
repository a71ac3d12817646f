"""Masked-language-model and next-sentence pretraining examples.

Documents are split into sentences on periods and newlines before
cleaning (cleaning erases the punctuation the splitter needs), then
each sentence is cleaned and subword-tokenized. Every example frames
two sentences as [CLS] A [SEP] B [SEP], unpadded (the encoder's batches
are padded by `transformer.pad_batch`); half the time B really follows
A, half the time B comes from a different document. Masking selects
round(rate x maskable) positions, at least one when anything is
maskable, and replaces 80% with [MASK], 10% with a random non-special
token, 10% kept unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .corpus import UnlabeledCorpus, clean_text
from .kernel import RngStream
from .wordpiece import (
    CLS_ID,
    MASK_ID,
    N_SPECIALS,
    SEP_ID,
    WordPieceVocab,
    piece_ids,
)

_SENTENCE_SPLIT = re.compile(r"[.\n]+")
MASK_TOKEN_SHARE = 0.8    # chosen positions replaced by [MASK]
RANDOM_TOKEN_SHARE = 0.1  # chosen positions replaced by a random token


@dataclass(frozen=True)
class PretrainExample:
    token_ids: Tuple[int, ...]
    segment_ids: Tuple[int, ...]
    masked_positions: Tuple[int, ...]
    masked_labels: Tuple[int, ...]  # original ids at the masked positions
    is_next: bool

    @property
    def maskable_count(self) -> int:
        """Maskable positions of the original (pre-mask) sequence."""
        plain = sum(1 for t in self.token_ids if t >= N_SPECIALS)
        hidden = sum(1 for p in self.masked_positions if self.token_ids[p] == MASK_ID)
        return plain + hidden


def split_sentences(document: str) -> List[str]:
    """Raw sentence split; empty fragments dropped."""
    return [frag.strip() for frag in _SENTENCE_SPLIT.split(document) if frag.strip()]


def _truncate_pair(a: List[int], b: List[int], max_len: int) -> Tuple[List[int], List[int]]:
    """Trim the longer side from its end until [CLS] A [SEP] B [SEP] fits."""
    budget = max_len - 3
    while len(a) + len(b) > budget:
        longer = a if len(a) >= len(b) else b
        longer.pop()
    return a, b


def mask_tokens(
    token_ids: Sequence[int],
    vocab_size: int,
    mask_rate: float,
    rng: RngStream,
) -> Tuple[List[int], List[int], List[int]]:
    """Returns (masked ids, chosen positions ascending, original labels)."""
    maskable = [i for i, t in enumerate(token_ids) if t >= N_SPECIALS]
    if not maskable:
        return list(token_ids), [], []
    n_mask = max(1, int(mask_rate * len(maskable) + 0.5))
    order = rng.permutation(len(maskable))
    chosen = sorted(maskable[i] for i in order[:n_mask])
    out = list(token_ids)
    labels = []
    for pos in chosen:
        labels.append(out[pos])
        roll = float(rng.random())
        if roll < MASK_TOKEN_SHARE:
            out[pos] = MASK_ID
        elif roll < MASK_TOKEN_SHARE + RANDOM_TOKEN_SHARE:
            out[pos] = int(rng.integers(N_SPECIALS, vocab_size))
        # else: keep the original token
    return out, chosen, labels


def create_pretraining_data(
    corpus: UnlabeledCorpus,
    vocab: WordPieceVocab,
    mask_rate: float = 0.15,
    seed: int = 0,
    max_len: int = 100,
    n_examples: Optional[int] = None,
) -> List[PretrainExample]:
    """Deterministic example stream; cycles over anchors when n_examples
    exceeds one pass."""
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0, 1), got {mask_rate}")
    docs: List[List[List[int]]] = []
    for document in corpus.documents:
        sentences = [
            ids for s in split_sentences(document)
            if (ids := piece_ids(vocab, clean_text(s)))
        ]
        if sentences:
            docs.append(sentences)
    if len(docs) < 2:
        raise ValueError("need at least 2 usable documents to build next-sentence negatives")

    anchors = [
        (d, s) for d, sentences in enumerate(docs) for s in range(len(sentences) - 1)
    ]
    if not anchors:
        raise ValueError("no multi-sentence documents; cannot build true-next pairs")

    rng = RngStream(seed)
    total = len(anchors) if n_examples is None else n_examples
    examples: List[PretrainExample] = []
    for i in range(total):
        doc_idx, sent_idx = anchors[i % len(anchors)]
        first = list(docs[doc_idx][sent_idx])
        if float(rng.random()) < 0.5:
            second = list(docs[doc_idx][sent_idx + 1])
            is_next = True
        else:
            other = int(rng.integers(0, len(docs) - 1))
            if other >= doc_idx:
                other += 1
            pick = int(rng.integers(0, len(docs[other])))
            second = list(docs[other][pick])
            is_next = False
        first, second = _truncate_pair(first, second, max_len)
        ids = [CLS_ID] + first + [SEP_ID] + second + [SEP_ID]
        segments = [0] * (len(first) + 2) + [1] * (len(second) + 1)
        masked_ids, positions, labels = mask_tokens(ids, len(vocab), mask_rate, rng)
        examples.append(
            PretrainExample(
                token_ids=tuple(masked_ids),
                segment_ids=tuple(segments),
                masked_positions=tuple(positions),
                masked_labels=tuple(labels),
                is_next=is_next,
            )
        )
    return examples
