"""Requirement corpora: ingestion, cleaning, vocabularies, and splits.

Labeled records arrive as CSV (issue tracker export) or canonical JSONL;
unlabeled pretraining documents as JSONL or plain text, one per line.
Cleaning lowercases, strips everything outside letters, digits, and
intra-word hyphens, removes a fixed English stopword list, and collapses
whitespace. All split plans are pure functions of corpus plus seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .kernel import RngStream

PAD_WORD = "<pad>"
UNK_WORD = "<unk>"
BUCKETS = (1, 2, 3, 5, 8, 13, 20, 40, 100)
WORDS_BIN_WIDTH = 10  # words per bin of the corpus_stats length histogram

CSV_COLUMNS = ("issuekey", "project", "title", "description", "storypoint")

_NON_WORD = re.compile(r"[^a-z0-9\-\s]")
_LOOSE_HYPHEN = re.compile(r"(?<![a-z0-9])-|-(?![a-z0-9])")


def _load_stopwords() -> Set[str]:
    raw = resources.files("storypointer.data").joinpath("english_stopwords.txt").read_text("utf-8")
    words: Set[str] = set()
    for line in raw.splitlines():
        line = line.strip().lower()
        if not line:
            continue
        # normalize each entry the same way clean_text normalizes text,
        # so contraction fragments ("don", "t") are filtered too
        normalized = _LOOSE_HYPHEN.sub(" ", _NON_WORD.sub(" ", line))
        words.update(normalized.split())
    return words


STOPWORDS = _load_stopwords()


def clean_text(raw: str) -> str:
    """Lowercase, keep [a-z0-9] and intra-word hyphens, drop stopwords.

    Idempotent: cleaning already-clean text changes nothing.
    """
    text = raw.lower()
    text = _NON_WORD.sub(" ", text)
    text = _LOOSE_HYPHEN.sub(" ", text)
    kept = [tok for tok in text.split() if tok not in STOPWORDS]
    return " ".join(kept)


def tokenize_words(text: str) -> List[str]:
    """Whitespace word split of already-cleaned text."""
    return text.split()


@dataclass(frozen=True)
class RequirementRecord:
    id: str
    project: str
    raw_text: str
    text: str  # cleaned
    effort: float
    degenerate: bool  # empty after cleaning

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.id, "project": self.project, "text": self.raw_text, "effort": self.effort},
            ensure_ascii=False,
        )


@dataclass(frozen=True)
class Rejection:
    where: str
    reason: str


@dataclass
class LabeledCorpus:
    records: List[RequirementRecord]
    rejections: List[Rejection] = field(default_factory=list)
    over_range: int = 0  # efforts above BUCKETS[-1], kept with a warning

    @property
    def projects(self) -> Set[str]:
        return {r.project for r in self.records}

    @property
    def degenerate_count(self) -> int:
        return sum(1 for r in self.records if r.degenerate)


@dataclass
class UnlabeledCorpus:
    documents: List[str]  # raw text, file order


def read_utf8(path) -> str:
    """The file's text, decoded whole; a byte that is not UTF-8 is a
    ValueError naming `path:line`, the physical line that holds it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _make_record(rid: str, project: str, raw_text: str, effort_raw) -> Tuple[Optional[RequirementRecord], Optional[str]]:
    try:
        effort = float(effort_raw)
    except (TypeError, ValueError):
        return None, f"non-numeric effort {effort_raw!r}"
    if not math.isfinite(effort):
        return None, f"non-finite effort {effort_raw!r}"
    if effort <= 0:
        return None, f"non-positive effort {effort}"
    cleaned = clean_text(raw_text)
    return (
        RequirementRecord(
            id=str(rid),
            project=str(project),
            raw_text=raw_text,
            text=cleaned,
            effort=effort,
            degenerate=(cleaned == ""),
        ),
        None,
    )


def load_labeled(path) -> LabeledCorpus:
    """Read a labeled corpus: CSV for a ".csv" suffix, JSONL otherwise.

    CSV rows combine title and description with a single space. Rows
    that fail to parse are collected as rejections, not fatal; a missing
    file or a missing required CSV column is.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"labeled corpus not found: {path}")

    records: List[RequirementRecord] = []
    rejections: List[Rejection] = []
    seen_ids: Set[str] = set()
    over_range = 0

    def admit(where: str, record: Optional[RequirementRecord], reason: Optional[str]) -> None:
        nonlocal over_range
        if record is None:
            rejections.append(Rejection(where, reason or "unparseable"))
            return
        if record.id in seen_ids:
            rejections.append(Rejection(where, f"duplicate id {record.id!r}"))
            return
        seen_ids.add(record.id)
        if record.effort > BUCKETS[-1]:
            over_range += 1
        records.append(record)

    text = read_utf8(path)
    if path.suffix.lower() == ".csv":
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            header = [h.strip().lower() for h in (reader.fieldnames or [])]
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}: missing required columns {missing}")
            for lineno, row in enumerate(reader, start=2):
                row = {(k or "").strip().lower(): (v or "") for k, v in row.items()}
                raw_text = f"{row['title']} {row['description']}".strip()
                record, reason = _make_record(
                    row["issuekey"], row["project"], raw_text, row["storypoint"]
                )
                admit(f"{path.name}:{lineno}", record, reason)
        except csv.Error as exc:
            # a field over csv's size limit, or a NUL byte before Python 3.11;
            # the inner reader counts physical lines, up to the one that failed
            raise ValueError(f"{path}:{reader.reader.line_num}: unreadable CSV: {exc}") from None
    else:
        for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                rejections.append(Rejection(where, f"invalid json: {exc.msg}"))
                continue
            except RecursionError:
                rejections.append(Rejection(where, "invalid json: nested too deeply"))
                continue
            if not isinstance(obj, dict):
                rejections.append(Rejection(where, "not a JSON object"))
                continue
            missing = [k for k in ("id", "project", "text", "effort") if k not in obj]
            if missing:
                rejections.append(Rejection(where, f"missing keys {missing}"))
                continue
            record, reason = _make_record(obj["id"], obj["project"], obj["text"], obj["effort"])
            admit(where, record, reason)

    return LabeledCorpus(records=records, rejections=rejections, over_range=over_range)


def load_unlabeled(path) -> UnlabeledCorpus:
    """One document per line; JSONL objects use their "text" field."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"unlabeled corpus not found: {path}")
    documents: List[str] = []
    for line in io.StringIO(read_utf8(path), newline=None):
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            try:
                obj = json.loads(line)
                text = str(obj.get("text", "")).strip()
            except (json.JSONDecodeError, RecursionError):
                text = line
        else:
            text = line
        if text:
            documents.append(text)
    if not documents:
        raise ValueError(f"{path}: no usable documents")
    return UnlabeledCorpus(documents=documents)


def save_jsonl(corpus: LabeledCorpus, path) -> None:
    """Write the canonical one-object-per-line form."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for record in corpus.records:
            fh.write(record.to_json() + "\n")


class Vocabulary:
    """Dense token→index map, in the order given, that starts with its specials:
    static words with their corpus counts, or WordPiece pieces with none."""

    def __init__(self, tokens: Sequence[str], specials: Sequence[str],
                 counts: Optional[Dict[str, int]] = None):
        self.tokens: List[str] = list(tokens)
        self.specials = tuple(specials)
        if tuple(self.tokens[:len(self.specials)]) != self.specials:
            raise ValueError(f"vocabulary must start with the specials {self.specials}")
        self.index: Dict[str, int] = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        self.counts = dict(counts or {})

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class SplitPlan:
    kind: str  # "kfold" or "by-project"
    fold_of: Dict[str, object]  # record id -> fold index or held-out project
    order: List[object]  # fold labels in round order
    seed: Optional[int] = None

    def rounds(self, corpus: LabeledCorpus) -> Iterator[Tuple[object, List[RequirementRecord], List[RequirementRecord]]]:
        """Yields (label, train records, test records) per round."""
        for label in self.order:
            test = [r for r in corpus.records if self.fold_of[r.id] == label]
            train = [r for r in corpus.records if self.fold_of[r.id] != label]
            yield label, train, test


def kfold_split(corpus: LabeledCorpus, k: int = 10, seed: int = 0) -> SplitPlan:
    """Shuffled k-way partition; remainders go to the lowest fold indices."""
    n = len(corpus.records)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds corpus size {n}")
    order = RngStream(seed).permutation(n)
    base, extra = divmod(n, k)
    fold_of: Dict[str, object] = {}
    cursor = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        for idx in order[cursor:cursor + size]:
            fold_of[corpus.records[idx].id] = fold
        cursor += size
    return SplitPlan(kind="kfold", fold_of=fold_of, order=list(range(k)), seed=seed)


def leave_one_project_out(corpus: LabeledCorpus) -> SplitPlan:
    projects = sorted(corpus.projects)
    if len(projects) < 2:
        raise ValueError("leave-one-project-out needs at least 2 projects")
    fold_of = {r.id: r.project for r in corpus.records}
    return SplitPlan(kind="by-project", fold_of=fold_of, order=projects)


def bucketize(effort: float) -> int:
    """Nearest value in BUCKETS; ties resolve to the lower bucket."""
    if effort <= 0:
        raise ValueError(f"effort must be positive, got {effort}")
    effort = min(effort, BUCKETS[-1])
    diffs = [abs(effort - b) for b in BUCKETS]
    return BUCKETS[diffs.index(min(diffs))]


def bucket_index(effort: float) -> int:
    return BUCKETS.index(bucketize(effort))


@dataclass
class CorpusStats:
    n_records: int
    n_projects: int
    n_degenerate: int
    words_mean: float
    words_std: float  # population
    words_hist: List[Tuple[int, int, int]]  # (bin_lo, bin_hi, count)
    effort_hist: List[Tuple[float, float, int]]  # exact values: lo == hi


def corpus_stats(corpus: LabeledCorpus) -> CorpusStats:
    if not corpus.records:
        raise ValueError("corpus is empty")
    word_counts = np.array([len(tokenize_words(r.text)) for r in corpus.records])
    bins: Counter = Counter(int(c) // WORDS_BIN_WIDTH for c in word_counts)
    words_hist = [
        (b * WORDS_BIN_WIDTH, (b + 1) * WORDS_BIN_WIDTH, bins[b]) for b in sorted(bins)
    ]
    effort_counts: Counter = Counter(r.effort for r in corpus.records)
    effort_hist = [(v, v, effort_counts[v]) for v in sorted(effort_counts)]
    return CorpusStats(
        n_records=len(corpus.records),
        n_projects=len(corpus.projects),
        n_degenerate=corpus.degenerate_count,
        words_mean=float(word_counts.mean()),
        words_std=float(word_counts.std()),
        words_hist=words_hist,
        effort_hist=effort_hist,
    )
