"""Every file a command writes is written whole or not at all.

Each case writes its files once, then writes them again while the process
may not grow any file past one byte less than the new target file needs:
the write fails partway through, as it would on a full disk. The previous
target file must then read back byte-identical, and no temporary file may
be left anywhere in the output directory.
"""

import contextlib
import io
import json
import resource
import signal
from pathlib import Path

import numpy as np
import pytest

from storypointer.cli import main
from storypointer.corpus import LabeledCorpus, RequirementRecord, save_jsonl
from storypointer.experiments import EvalReport
from storypointer.kernel import parameter
from storypointer.kernel.checkpoint import save_checkpoint, write_file
from storypointer.metrics import METRIC_NAMES
from storypointer.reports import emit_report, write_csv, write_fold_report

from test_cli import write_corpus_csv


@contextlib.contextmanager
def files_limited_to(size: int):
    """Any write that would grow a file past `size` bytes fails with EFBIG."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # an OSError, not a signal
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def cli(*argv) -> None:
    """Runs one command in process; a failure is an OSError holding its error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        raise OSError(err.getvalue())


# Each case writes version 0 or 1 of its files into `out`, reading any
# input it makes under `root`; version 1 makes the target the largest file.
# Inputs are made once, by the first write that needs them, so none is
# made while file sizes are limited.


def make_once(path: Path, text: str) -> Path:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return path


def csv_case(root: Path, out: Path, version: int) -> None:
    write_csv(out / "table.csv", ["x"], [[version + i / 7] for i in range(50 * (version + 1))])


def jsonl_case(root: Path, out: Path, version: int) -> None:
    records = [RequirementRecord(f"S-{i}", "p", "fix the login form", "fix login form",
                                 float(version + 1), False) for i in range(20 * (version + 1))]
    save_jsonl(LabeledCorpus(records=records), out / "corpus.jsonl")


def provenance_case(root: Path, out: Path, version: int) -> None:
    aggregate = {name: (1.0 + version, 0.5) for name in METRIC_NAMES}
    note = "x" * 400 * (version + 1)  # longer than any of the report's CSVs
    write_fold_report(EvalReport("E1", [], aggregate, {"note": note}), out)


def history_case(root: Path, out: Path, version: int) -> None:
    corpus = root / "stories.csv"
    if not corpus.exists():
        write_corpus_csv(corpus)
        cli("pretrain-static", "--corpus", corpus, "--dimension", "4", "--epochs", "1",
            "--out", root)
    # history.json is indented, so at 1500 epochs it outgrows the checkpoint that holds it too
    epochs = "1500" if version else "10"
    cli("train", "--corpus", corpus, "--embedding", root / "static.ckpt", "--mode", "pooled",
        "--epochs", epochs, "--patience", epochs, "--seed", version, "--out", out)


def rejections_case(root: Path, out: Path, version: int) -> None:
    corpus = make_once(root / f"stories{version}.jsonl",
                       '{"id": "A", "project": "p", "text": "fix it", "effort": 3}\n'
                       + "not json\n" * 20 * (version + 1))
    cli("ingest", "--corpus", corpus, "--out", out)


def fake_run(root: Path, version: int, provenance: dict, csv_text: str = "") -> Path:
    run = root / f"run{version}"
    make_once(run / "E1" / "provenance.json", json.dumps(provenance))
    if csv_text:
        make_once(run / "E1" / "big.csv", csv_text)
    return run


def bundle_copy_case(root: Path, out: Path, version: int) -> None:
    emit_report(fake_run(root, version, {"experiment": "E1"}, f"{version}\n" * 500 * (version + 1)),
                out)


def manifest_case(root: Path, out: Path, version: int) -> None:
    # each seed takes more bytes in the indented manifest than in the compact provenance
    seeds = [{"seed": i} for i in range(100 * (version + 1))]
    emit_report(fake_run(root, version, {"experiment": "E1", "runs": seeds}), out)


def checkpoint_case(root: Path, out: Path, version: int) -> None:
    save_checkpoint(out / "model.ckpt", {"w": parameter(np.full(100 * (version + 1), 0.5 + version))})


# case -> (its writer, the target file it writes under `out`)
CASES = {
    "write_csv": (csv_case, "table.csv"),
    "save_jsonl": (jsonl_case, "corpus.jsonl"),
    "provenance.json": (provenance_case, "provenance.json"),
    "history.json": (history_case, "history.json"),
    "rejections.txt": (rejections_case, "rejections.txt"),
    "bundle-copy": (bundle_copy_case, "E1/big.csv"),
    "manifest.json": (manifest_case, "manifest.json"),
    "save_checkpoint": (checkpoint_case, "model.ckpt"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_write_that_fails_partway_keeps_the_previous_file(tmp_path, case):
    write, name = CASES[case]
    # the sizes version 1 writes, measured in a directory of its own
    probe, out = tmp_path / "probe", tmp_path / "out"
    probe.mkdir(), out.mkdir()
    write(tmp_path, probe, 1)
    sizes = {p.relative_to(probe).as_posix(): p.stat().st_size for p in probe.rglob("*") if p.is_file()}
    assert max(sizes, key=sizes.get) == name, sizes
    write(tmp_path, out, 0)
    previous = (out / name).read_bytes()
    with files_limited_to(sizes[name] - 1), pytest.raises(OSError, match="File too large"):
        write(tmp_path, out, 1)
    assert (out / name).read_bytes() == previous
    assert sorted(p.name for p in out.rglob("*.tmp")) == []


def test_write_file_creates_the_directory_and_writes_text_as_utf8(tmp_path):
    target = tmp_path / "a" / "b" / "note.txt"
    write_file(target, "naïve\r\n")
    assert target.read_bytes() == "naïve\r\n".encode("utf-8")
    write_file(target, b"\x00\xff")
    assert target.read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "note.txt"]
