"""Tabular outputs: fold metrics, aggregates, confusion matrices, bundles.

Every table is written twice: a display copy rounded to 2 decimals and
a `*_raw.csv` twin carrying full precision. Writers avoid timestamps so
reruns with identical inputs produce byte-identical files; the bundle
manifest is the only place a clock appears.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .corpus import BUCKETS, CorpusStats, LabeledCorpus
from .experiments import EvalReport
from .metrics import METRIC_NAMES


def _fmt_display(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.2f}"
    return str(value)


def _fmt_raw(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence], raw: bool = False) -> Path:
    """A field holding a comma, a quote or a line break is quoted, so ids and
    project names read back as written.

    `csv` leaves a lone carriage return bare, which a reader takes for the
    end of a row, so a row holding one has every field quoted.
    """
    path = Path(path)
    fmt = _fmt_raw if raw else _fmt_display
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *([fmt(cell) for cell in row] for row in rows)]:
            (quoted if any("\r" in cell for cell in row) else writer).writerow(row)
    return path


def write_twin_csv(directory, stem: str, header, rows) -> List[Path]:
    directory = Path(directory)
    return [
        write_csv(directory / f"{stem}.csv", header, rows, raw=False),
        write_csv(directory / f"{stem}_raw.csv", header, rows, raw=True),
    ]


def write_fold_report(report: EvalReport, directory) -> List[Path]:
    """Fold metrics, aggregate, predictions, confusion, and provenance."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    header = ["fold", "mae", "mdae", "mse", "rmse", "n", "best_epoch", "stop_reason"]
    rows = [
        [f.label, f.metrics.mae, f.metrics.mdae, f.metrics.mse, f.metrics.rmse,
         f.metrics.n, f.best_epoch, f.stop_reason]
        for f in report.folds
    ]
    written += write_twin_csv(directory, "folds", header, rows)

    # std is the population (n-divisor) flavor
    agg_header = ["metric", "mean", "std_population"]
    agg_rows = [[name, *report.aggregate[name]] for name in METRIC_NAMES]
    written += write_twin_csv(directory, "aggregate", agg_header, agg_rows)

    pred_header = ["fold", "actual", "predicted"]
    pred_rows = [
        [f.label, a, p]
        for f in report.folds
        for a, p in zip(f.actual, f.predicted)
    ]
    written.append(write_csv(directory / "predictions_raw.csv", pred_header, pred_rows, raw=True))

    if report.confusion is not None:
        bucket_header = ["actual\\predicted"] + [str(b) for b in BUCKETS]
        count_rows = [
            [str(BUCKETS[i])] + [int(v) for v in row]
            for i, row in enumerate(report.confusion)
        ]
        written.append(write_csv(directory / "confusion.csv", bucket_header, count_rows))
        norm_rows = [
            [str(BUCKETS[i])] + list(row)
            for i, row in enumerate(report.confusion_normalized)
        ]
        written.append(
            write_csv(directory / "confusion_normalized_raw.csv", bucket_header, norm_rows, raw=True)
        )

    provenance = dict(report.provenance)
    provenance["aggregate"] = {
        name: {"mean": report.aggregate[name][0], "std_population": report.aggregate[name][1]}
        for name in METRIC_NAMES
    }
    (directory / "provenance.json").write_text(
        json.dumps(provenance, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(directory / "provenance.json")
    return written


def write_project_table(corpus: LabeledCorpus, report: EvalReport, directory) -> List[Path]:
    """Per-project requirement counts, effort moments, and fold MAE, as
    `per_project.csv` and its raw twin.

    A final "avg" row averages the MAE column, matching the new-project
    summary layout.
    """
    if report.provenance.get("split", {}).get("kind") != "by-project":
        raise ValueError("per-project tables need a by-project evaluation")
    by_project: Dict[str, List[float]] = {}
    for record in corpus.records:
        by_project.setdefault(record.project, []).append(record.effort)
    header = ["project", "n_requirements", "effort_mean", "effort_std", "mae"]
    rows = []
    for fold in report.folds:
        efforts = np.array(by_project[fold.label])
        rows.append([
            fold.label, len(efforts), float(efforts.mean()),
            float(efforts.std()), fold.metrics.mae,
        ])
    maes = [fold.metrics.mae for fold in report.folds]
    rows.append(["avg", "", "", "", float(np.mean(maes))])
    return write_twin_csv(Path(directory), "per_project", header, rows)


def write_corpus_stats(stats: CorpusStats, directory) -> List[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [
        write_csv(
            directory / "words_hist.csv",
            ["bin_lo", "bin_hi", "count"],
            stats.words_hist,
        ),
        write_csv(
            directory / "effort_hist.csv",
            ["effort", "count"],
            [[lo, count] for lo, _, count in stats.effort_hist],
        ),
        write_csv(
            directory / "summary.csv",
            ["n_records", "n_projects", "n_degenerate", "words_mean", "words_std_population"],
            [[stats.n_records, stats.n_projects, stats.n_degenerate,
              stats.words_mean, stats.words_std]],
        ),
    ]
    return written


def export_embeddings(path, ids: Sequence[str], matrix: np.ndarray) -> Path:
    """One row per requirement: id followed by its embedding coordinates."""
    if len(ids) != matrix.shape[0]:
        raise ValueError("id count does not match embedding rows")
    header = ["id"] + [f"dim{i}" for i in range(matrix.shape[1])]
    rows = [[ids[i], *matrix[i]] for i in range(len(ids))]
    return write_csv(path, header, rows, raw=True)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def emit_report(run_dir, out_dir=None) -> Path:
    """Merge every evaluation under run_dir into one bundle directory."""
    run_dir = Path(run_dir)
    sources = sorted(run_dir.glob("*/provenance.json"))
    if not sources:
        raise ValueError(f"no evaluation outputs under {run_dir}")
    # every file is read and checked before the bundle is written
    provenances = [(source, *_read_provenance(source)) for source in sources]
    bundle = Path(out_dir) if out_dir is not None else run_dir / "bundle"
    bundle.mkdir(parents=True, exist_ok=True)

    manifest = {
        "generated_unix": int(time.time()),
        "evaluations": [],
        "seeds": [],
    }
    aggregates = []
    for source, info, seeds in provenances:
        name = source.parent.name
        target = bundle / name
        target.mkdir(exist_ok=True)
        for artifact in sorted(source.parent.glob("*.csv")):
            shutil.copy(artifact, target / artifact.name)
        shutil.copy(source, target / "provenance.json")
        manifest["evaluations"].append({
            "name": name,
            "experiment": info.get("experiment"),
            "split": info.get("split"),
            "embedding": info.get("embedding", {}).get("model_id"),
            "corpus_sha256": info.get("corpus_sha256"),
        })
        for seed in seeds:
            if seed not in manifest["seeds"]:
                manifest["seeds"].append(seed)
        if "aggregate" in info and "experiment" in info:
            aggregates.append((info["experiment"], name, info["aggregate"]))

    if aggregates:
        header = ["model", "mae", "mae_std", "mse", "mse_std", "mdae", "mdae_std"]
        rows = [
            [exp, agg["mae"]["mean"], agg["mae"]["std_population"],
             agg["mse"]["mean"], agg["mse"]["std_population"],
             agg["mdae"]["mean"], agg["mdae"]["std_population"]]
            for exp, _, agg in sorted(aggregates, key=lambda item: item[:2])
        ]
        write_twin_csv(bundle, "comparison", header, rows)

    for extra in sorted(run_dir.glob("*.csv")):
        shutil.copy(extra, bundle / extra.name)

    (bundle / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return bundle


def _read_provenance(source: Path) -> Tuple[dict, List[str]]:
    """The provenance object in `source` and its seeds. A file that does not
    parse, nests too deeply, or does not have the shape `emit_report` reads
    is refused with a ValueError naming it."""
    try:
        info = json.loads(source.read_text(encoding="utf-8"))
        seeds = _collect_seeds(info)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: unreadable provenance ({exc})") from None
    if not (isinstance(info, dict) and isinstance(info.get("embedding", {}), dict)):
        raise ValueError(f"{source}: provenance must be a JSON object whose embedding is an object")
    aggregate = info.get("aggregate", {})
    if "aggregate" in info and not all(
            isinstance(aggregate, dict) and isinstance(aggregate.get(metric), dict)
            and {"mean", "std_population"} <= aggregate[metric].keys()
            for metric in ("mae", "mse", "mdae")):
        raise ValueError(f"{source}: aggregate must hold the mean and std_population "
                         "of mae, mse and mdae")
    return info, seeds


def _collect_seeds(tree, path="") -> List[str]:
    """Every *seed* field in a nested provenance structure, labeled by path."""
    found: List[str] = []
    if isinstance(tree, dict):
        for key, value in tree.items():
            where = f"{path}.{key}" if path else key
            if "seed" in key and isinstance(value, (int, float)) and value == int(value):
                found.append(f"{where}={int(value)}")
            else:
                found.extend(_collect_seeds(value, where))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            found.extend(_collect_seeds(value, f"{path}[{i}]"))
    return found
