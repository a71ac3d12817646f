"""Seeded synthetic story corpus and serve request mix.

Stories are multi-sentence texts over a Zipf-distributed made-up
vocabulary. Each story belongs to one of a few projects and has a
size level; the level picks its Planning-Poker bucket and the "size
words" it uses, so effort is predictable from content and `eval_mae`
carries signal.

Story shapes (sentence counts and lengths) and the histogram of size
levels come from fixed schedules that the seed only shuffles, so every
seed yields corpora of the same size and effort mix: timings and
`eval_mae` depend on the seed as little as possible.

The buckets and stopwords are the program's own (`storypointer.corpus`),
so `src/` must be on `sys.path` before a generator is built.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

PROJECTS = ("apollo", "borealis", "cygnus", "draco", "eridanus")
_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "br", "tr", "st", "pl", "gr", "sn", "kl")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
_CODAS = ("", "n", "r", "s", "t", "l", "x", "m")

N_COMMON = 900        # shared Zipf vocabulary
N_SIZE_WORDS = 24     # words per effort bucket
N_PROJECT_WORDS = 40  # words per project


def _make_words(rng: np.random.Generator, count: int, taken: set) -> List[str]:
    words: List[str] = []
    while len(words) < count:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _NUCLEI[rng.integers(len(_NUCLEI))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(n_syll)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _zipf(n: int, exponent: float = 1.05) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + 2.7) ** exponent
    return weights / weights.sum()


class StoryGenerator:
    """Draws stories and efforts from one seed."""

    def __init__(self, seed: int):
        from storypointer.corpus import BUCKETS, STOPWORDS
        if len(BUCKETS) != len(LEVEL_SHARES):
            raise ValueError(f"LEVEL_SHARES has {len(LEVEL_SHARES)} shares for "
                             f"{len(BUCKETS)} buckets")
        self.buckets = BUCKETS
        # the cleaner drops these; some are sprinkled into sentences and
        # a few rows consist of nothing else (degenerate texts)
        self.stopwords = tuple(sorted(STOPWORDS))
        self.rng = np.random.default_rng(seed)
        taken = set(STOPWORDS)
        self.common = _make_words(self.rng, N_COMMON, taken)
        self.common_cdf = np.cumsum(_zipf(N_COMMON))
        self.size_words = [_make_words(self.rng, N_SIZE_WORDS, taken) for _ in BUCKETS]
        self.project_words = {p: _make_words(self.rng, N_PROJECT_WORDS, taken) for p in PROJECTS}

    def _sentence(self, n_words: int, level: int, project: str) -> str:
        rng = self.rng
        top = len(self.buckets) - 1
        words: List[str] = []
        for _ in range(n_words):
            roll = rng.random()
            if roll < 0.22:
                # size words of the story's bucket or a neighbouring one
                near = int(np.clip(level + rng.integers(-1, 2), 0, top))
                words.append(self.size_words[near][rng.integers(N_SIZE_WORDS)])
            elif roll < 0.34:
                words.append(self.project_words[project][rng.integers(N_PROJECT_WORDS)])
            elif roll < 0.44:
                words.append(self.stopwords[rng.integers(len(self.stopwords))])
            else:
                rank = min(int(np.searchsorted(self.common_cdf, rng.random())), N_COMMON - 1)
                words.append(self.common[rank])
        return " ".join(words)

    def story(self, n_sentences: int, sentence_words: int, project: str,
              level: int) -> Tuple[str, str]:
        """(title, description) of one story."""
        rng = self.rng
        title = self._sentence(int(rng.integers(3, 7)), level, project)
        sentences = [
            self._sentence(max(3, sentence_words + int(rng.integers(-3, 4))), level, project)
            for _ in range(n_sentences)
        ]
        return title, ". ".join(sentences) + ("." if sentences else "")


def _length_schedule(n_stories: int) -> List[Tuple[int, int]]:
    """(sentences, words per sentence) per story; seed-independent."""
    shapes = []
    for i in range(n_stories):
        kind = i % 10
        if kind < 2:
            shapes.append((0, 0))                     # title only
        elif kind < 8:
            shapes.append((2 + kind % 3, 6 + kind))   # 2-4 medium sentences
        else:
            shapes.append((9 + kind % 2, 12))         # 100+ words
    return shapes


# share of stories per size level (bucket 1 .. 100)
LEVEL_SHARES = (0.05, 0.10, 0.16, 0.20, 0.20, 0.14, 0.08, 0.05, 0.02)
# label noise: the recorded bucket is one below, equal to or one above the level
LABEL_SHIFTS = (-1, 0, 0, 0, 0, 1)


def _level_schedule(n_stories: int) -> List[int]:
    """Size levels in the fixed proportions of LEVEL_SHARES."""
    bounds = np.round(np.cumsum(LEVEL_SHARES) * n_stories).astype(int)
    return [int(np.searchsorted(bounds, i, side="right")) for i in range(n_stories)]


def _rows(gen: StoryGenerator, n_stories: int) -> Tuple[List[tuple], Dict[str, int]]:
    """(issuekey, project, title, description, effort) rows and their counts."""
    shapes = _length_schedule(n_stories)
    levels = _level_schedule(n_stories)
    shape_order = gen.rng.permutation(n_stories)
    level_order = gen.rng.permutation(n_stories)
    n_degenerate = max(2, n_stories // 150)
    n_over = max(2, n_stories // 200)
    top = len(gen.buckets) - 1
    rows = []
    for row in range(n_stories):
        n_sent, n_words = shapes[shape_order[row]]
        level = levels[level_order[row]]
        project = PROJECTS[row % len(PROJECTS)]
        title, description = gen.story(n_sent, n_words, project, level)
        shifted = level + LABEL_SHIFTS[level_order[row] % len(LABEL_SHIFTS)]
        effort = float(gen.buckets[int(np.clip(shifted, 0, top))])
        if row < n_degenerate:
            title = " ".join(gen.stopwords[j % len(gen.stopwords)] for j in range(row, row + 4))
            description = ""
        elif row < n_degenerate + n_over:
            effort = 120.0 + 40 * row
        rows.append((f"{project.upper()}-{row + 1}", project, title, description, effort))
    return rows, {"stories": n_stories, "degenerate": n_degenerate, "over_range": n_over}


def write_corpus(path: Path, seed: int, n_stories: int) -> Dict[str, int]:
    """Labeled CSV in the `load_labeled` format; returns its row counts."""
    rows, counts = _rows(StoryGenerator(seed), n_stories)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("issuekey", "project", "title", "description", "storypoint"))
        for key, project, title, description, effort in rows:
            writer.writerow((key, project, title, description, f"{effort:g}"))
    return counts


MALFORMED = (b"{not json", b'{"txt": "missing text"}', b'{"text": 42}', b"[1, 2]")


def request_texts(seed: int, count: int) -> List[str]:
    """Texts for POST /estimate: `count` held-out stories.

    They are drawn exactly as the corpus is (same vocabulary and length
    and level schedules, fresh random draws), and joined as
    `load_labeled` joins title and description. So the mix is the
    corpus's own: 2 in 10 are titles only, 6 in 10 have 2-4 sentences,
    2 in 10 have 100+ words (truncated by the featurizer), max(2,
    count // 150) are stopword-only (flagged degenerate), and Zipf-tail
    words the corpus never drew reach the server as unseen words.
    Malformed bodies are `MALFORMED`; the load generator sends one in
    every hundred.
    """
    gen = StoryGenerator(seed)
    gen.rng = np.random.default_rng([seed, 1])  # held out: fresh draws, same vocabulary
    rows, _ = _rows(gen, count)
    return [f"{title} {description}".strip() for _, _, title, description, _ in rows]
