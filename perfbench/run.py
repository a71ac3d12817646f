#!/usr/bin/env python3
"""storypointer benchmark: pretraining, k-fold evaluation and serving.

    python3 perfbench/run.py --workload static-seq --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. Every workload walks a model
through its whole life on a seeded synthetic corpus, through the public
CLI (`storypointer.cli.main`, in process) and `storypointer serve` (in
a child process):

  set-up      build the corpus and request mix; `ingest` it; start the server
  warm-up     a short pretraining run and `train` of the served model
  offline     `pretrain-*` then `evaluate` with k folds, repeated
  serving     an open loop at a fixed rate, then a closed loop

Workloads differ in the embedding, the head and where the time goes
(see README.md). With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; with --trace 1 the offline iterations
alternate between untraced and traced, the server times each estimate,
and the metrics are the per-layer ones. Every run checks the outputs
(exit codes, reports, byte-identical repeats, finite losses, every
HTTP reply against the in-process estimate) and exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import http.client
import io
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# perfbench/ is on sys.path as the script's directory
import loadgen
import synth
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

INGEST_REPEATS = 5      # `ingest` runs per run; setup_s takes the median
SERVER_STARTS = 7       # server starts per run; setup_s adds their median
MIN_ITERATIONS = 3      # offline iterations per run, however short --seconds is
N_CLIENTS = 2           # keep-alive connections; the box has 2 cores
KFOLD = 3


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""
    name: str
    stories: int              # labeled corpus size, and held-out request texts
    embedding: str            # "static" or "contextual"
    mode: str                 # head input: "sequence" or "pooled"
    experiment: str
    pretrain: Tuple[str, ...]  # command and flags before --corpus/--seed/--out
    head_epochs: int
    head_lr: float
    offline_share: float      # shares of --seconds
    open_share: float
    closed_share: float
    rate: float               # open-loop requests per second, below capacity; each
                              # connection then sends every 2/rate s, well over the
                              # 40 ms delayed-ACK timeout, so a stall does not persist


_STATIC = ("pretrain-static", "--embed-mode", "cbow", "--dimension", "100", "--epochs", "1")
CTX_EXAMPLES = 128  # 4 optimizer steps at the CLI's batch size of 32
_CTX = ("pretrain-ctx", "--layers", "4", "--hidden", "128", "--vocab-size", "300",
        "--max-len", "64", "--epochs", "1", "--n-examples", str(CTX_EXAMPLES))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="static-seq",
        stories=240, embedding="static", mode="sequence", experiment="E1",
        pretrain=_STATIC, head_epochs=2, head_lr=0.002,
        offline_share=0.55, open_share=0.35, closed_share=0.1, rate=20.0,
    ),
    Workload(
        name="ctx-pooled",
        stories=100, embedding="contextual", mode="pooled", experiment="E3",
        pretrain=_CTX, head_epochs=100, head_lr=0.01,
        offline_share=0.6, open_share=0.3, closed_share=0.1, rate=10.0,
    ),
)}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports correct: false."""


# ---- environment --------------------------------------------------------


def _openblas_threads() -> Optional[int]:
    """Thread count the OpenBLAS bundled with numpy will use."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---- one run ------------------------------------------------------------


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None

    # -- helpers

    def cli(self, argv: List[str]) -> str:
        """Runs one storypointer command in process; returns its stdout."""
        from storypointer import cli
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"storypointer {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def _common(self, out: Path, corpus: Path) -> List[str]:
        return ["--corpus", str(corpus), "--seed", str(self.seed), "--out", str(out)]

    def _checkpoint(self, out: Path) -> Path:
        return out / ("static.ckpt" if self.w.embedding == "static" else "encoder.ckpt")

    def _head(self) -> List[str]:
        epochs = str(self.w.head_epochs)
        # patience == epochs: early stopping never shortens head training
        return ["--mode", self.w.mode, "--epochs", epochs, "--patience", epochs,
                "--lr", str(self.w.head_lr)]

    # -- phases

    def setup_corpus(self) -> Tuple[float, List[float]]:
        """Writes the corpus and request mix (benchmark code, timed for the
        record) and ingests the corpus (program code, timed for setup_s)."""
        start = time.perf_counter()
        self.rows = synth.write_corpus(self.dir / "corpus.csv", self.seed, self.w.stories)
        self.texts = synth.request_texts(self.seed, self.w.stories)
        generate_s = time.perf_counter() - start
        ingest_s = []
        for attempt in range(INGEST_REPEATS):
            start = time.perf_counter()
            self.cli(["ingest", "--corpus", str(self.dir / "corpus.csv"),
                      "--out", str(self.dir / f"ingest{attempt}")])
            ingest_s.append(time.perf_counter() - start)
        return generate_s, ingest_s

    def warmup(self) -> Path:
        """Lets lazy set-up (BLAS threads, allocator) finish before timing;
        leaves the model that is served."""
        served = self.dir / "served"
        corpus = self.dir / "corpus.csv"
        self.cli(list(self.w.pretrain) + self._common(served, corpus))
        self.cli(["train", "--embedding", str(self._checkpoint(served))]
                 + self._head() + self._common(served, corpus))
        return served

    def offline_iteration(self, index: int) -> Tuple[float, float, Path, str]:
        corpus = self.dir / "corpus.csv"
        out = self.dir / f"iter{index}"
        gc.collect()
        start = time.perf_counter()
        message = self.cli(list(self.w.pretrain) + self._common(out, corpus))
        pretrain_s = time.perf_counter() - start
        gc.collect()
        start = time.perf_counter()
        self.cli(["evaluate", "--experiment", self.w.experiment,
                  "--embedding", str(self._checkpoint(out)), "--kfold", str(KFOLD)]
                 + self._head() + self._common(out, corpus))
        evaluate_s = time.perf_counter() - start
        return pretrain_s, evaluate_s, out / self.w.experiment, message

    def offline(self, deadline: float) -> dict:
        pretrain, evaluate, traced_runs, untraced_totals, traced_totals = [], [], [], [], []
        reports: List[Path] = []
        messages: List[str] = []
        index = 0
        durations: List[float] = []
        # start another iteration only if a typical one still fits before the deadline
        while index < MIN_ITERATIONS or time.perf_counter() + statistics.median(durations) < deadline:
            traced = self.trace and index % 2 == 1
            if traced:
                self.tracer.run_id = index
                self.tracer.install()
            try:
                p, e, report, message = self.offline_iteration(index)
            finally:
                if traced:
                    self.tracer.restore()
            durations.append(p + e)
            (traced_totals if traced else untraced_totals).append(p + e)
            if traced:
                traced_runs.append(index)
            else:
                pretrain.append(p)
                evaluate.append(e)
            reports.append(report)
            messages.append(message)
            index += 1
        self.check_reports(reports)
        return {"pretrain": pretrain, "evaluate": evaluate, "reports": reports,
                "messages": messages, "traced_runs": traced_runs,
                "untraced_totals": untraced_totals, "traced_totals": traced_totals}

    # -- checks

    def check_reports(self, reports: List[Path]) -> None:
        first = None
        for report in reports:
            for name in ("folds.csv", "aggregate.csv", "aggregate_raw.csv", "folds_raw.csv"):
                if not (report / name).is_file():
                    raise CheckFailed(f"{report / name} was not written")
            with open(report / "folds_raw.csv", newline="", encoding="utf-8") as fh:
                folds = list(csv.DictReader(fh))
            if len(folds) != KFOLD or any(f["stop_reason"] != "epochs" for f in folds):
                raise CheckFailed(f"{report}: expected {KFOLD} folds trained for every epoch")
            data = (report / "aggregate_raw.csv").read_bytes()
            if first is None:
                first = data
            elif data != first:
                raise CheckFailed(f"{report}/aggregate_raw.csv differs from the first run's")

    def eval_mae(self, report: Path) -> float:
        with open(report / "aggregate_raw.csv", newline="", encoding="utf-8") as fh:
            rows = {row["metric"]: row for row in csv.DictReader(fh)}
        value = float(rows["mae"]["mean"])
        if not math.isfinite(value) or value <= 0:
            raise CheckFailed(f"eval_mae is {value}")
        return value

    def pretrain_loss(self, out: Path, messages: List[str]) -> float:
        """Loss of the trained embedding on a fixed batch, at full precision."""
        from storypointer.corpus import UnlabeledCorpus, load_labeled
        corpus = load_labeled(self.dir / "corpus.csv")
        documents = UnlabeledCorpus(documents=[r.raw_text for r in corpus.records])
        if self.w.embedding == "static":
            from storypointer.static_embed import frozen_batch_loss, load_static, make_frozen_batch
            model = load_static(self._checkpoint(out))
            value = frozen_batch_loss(model, make_frozen_batch(model, documents, self.seed))
        else:
            from storypointer.lm_training import evaluate_pretraining
            from storypointer.pretrain_data import create_pretraining_data
            from storypointer.transformer import load_transformer
            # the CLI prints the final-epoch loss to 4 digits; every iteration must agree
            losses = {m.group(1) for m in (re.search(r"final loss (\S+)\)", s) for s in messages)
                      if m is not None}
            if len(losses) != 1:
                raise CheckFailed(f"pretrain-ctx reported final losses {sorted(losses)}")
            model = load_transformer(self._checkpoint(out))
            examples = create_pretraining_data(
                documents, model.vocab, seed=self.seed, max_len=model.config.max_len,
                n_examples=CTX_EXAMPLES,
            )
            value = evaluate_pretraining(model, examples)[0]
        if not math.isfinite(value) or value <= 0:
            raise CheckFailed(f"pretraining loss is {value}")
        return value

    # -- serving

    def expected_replies(self, served: Path) -> List[dict]:
        from storypointer.corpus import BUCKETS
        from storypointer.estimator import load_estimator
        from storypointer.features import ContextualFeaturizer, StaticFeaturizer
        from storypointer.server import EstimateService
        from storypointer.static_embed import load_static
        from storypointer.transformer import load_transformer
        estimator = load_estimator(served / "estimator.ckpt")
        if self.w.embedding == "static":
            featurizer = StaticFeaturizer(load_static(self._checkpoint(served)), mode=self.w.mode)
        else:
            featurizer = ContextualFeaturizer(load_transformer(self._checkpoint(served)),
                                              mode=self.w.mode)
        service = EstimateService(estimator, featurizer)
        replies = [json.loads(json.dumps(service.estimate(text))) for text in self.texts]
        for reply in replies:
            if not 1.0 <= reply["effort"] <= 100.0 or reply["class"] not in BUCKETS:
                raise CheckFailed(f"in-process estimate out of range: {reply}")
        return replies

    def start_server(self, served: Path, stats: Path, traced: bool) -> Tuple[subprocess.Popen, int, float]:
        """Spawns the server; returns it, its port and the seconds to its first 200."""
        log = open(self.dir / "server.log", "ab")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), str(stats), "1" if traced else "0",
             "--model", str(served / "estimator.ckpt"),
             "--embedding", str(self._checkpoint(served)), "--bind", "127.0.0.1:0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        log.close()
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline() if ready else ""
            match = re.search(r"http://[\d.]+:(\d+)/", line)
            if match is None:
                raise CheckFailed(f"server did not announce its address: {line!r}")
            port = int(match.group(1))
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                status, _ = loadgen.post(conn, json.dumps({"text": self.texts[0]}).encode())
            finally:
                conn.close()
            if status != 200:
                raise CheckFailed(f"first request got {status}")
            return proc, port, time.perf_counter() - start
        except BaseException:
            stop_server(proc)
            raise

    def serve(self, served: Path) -> dict:
        expected = self.expected_replies(served)
        requests = loadgen.Requests(self.texts, expected)
        starts = []
        for attempt in range(SERVER_STARTS):
            last = attempt == SERVER_STARTS - 1
            stats = self.dir / f"server{attempt}.json"
            proc, port, seconds = self.start_server(served, stats, self.trace and last)
            self.attempted += 1
            starts.append(seconds)
            if not last:
                stop_server(proc)
        try:
            opened = loadgen.open_loop(port, requests, self.w.rate,
                                       self.w.open_share * self.seconds, N_CLIENTS)
            closed = loadgen.closed_loop(port, requests, self.w.closed_share * self.seconds,
                                         N_CLIENTS, first=opened.sent)
            alive = proc.poll() is None
            final = loadgen.Outcome()
            if alive:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                loadgen.send(conn, requests, 0, final).close()
        finally:
            code = stop_server(proc)
        for outcome in (opened, closed, final):
            self.attempted += outcome.sent
            self.failed += outcome.failed
        errors = opened.errors + closed.errors + final.errors
        if errors:
            raise CheckFailed(f"{len(errors)} bad replies, e.g. {errors[:3]}")
        if not alive or final.ok != 1:
            raise CheckFailed("server was not alive at the end of the load")
        if opened.rejected + closed.rejected == 0:
            raise CheckFailed("no malformed body was sent")
        server_stats = json.loads(stats.read_text(encoding="utf-8"))
        if code != 0:
            raise CheckFailed(f"server exited {code}")
        return {"starts": starts, "open": opened, "closed": closed, "server": server_stats}

    # -- the whole run

    def run(self) -> Dict[str, float]:
        t0 = time.perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        generate_s, ingest_s = self.setup_corpus()
        served = self.warmup()
        offline = self.offline(t0 + self.w.offline_share * self.seconds)
        serving = self.serve(served)
        self.details = {"generate_s": generate_s, "ingest_s": ingest_s,
                        "server_start_s": serving["starts"],
                        "pretrain_s": offline["pretrain"], "evaluate_s": offline["evaluate"],
                        "open_loop": loadgen.summary(serving["open"]),
                        "closed_loop": loadgen.summary(serving["closed"]),
                        "corpus_rows": self.rows, "wall_s": time.perf_counter() - t0}
        if self.trace:
            return self.layer_metrics(offline, serving)
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": statistics.median(ingest_s) + statistics.median(serving["starts"]),
            "pretrain_s": statistics.median(offline["pretrain"]),
            "evaluate_s": statistics.median(offline["evaluate"]),
            "eval_mae": self.eval_mae(offline["reports"][0]),
            "pretrain_loss": self.pretrain_loss(offline["reports"][-1].parent, offline["messages"]),
            "estimate_p50_ms": loadgen.percentile(serving["open"].latencies_ms, 50),
            "estimate_rps": serving["closed"].ok / serving["closed"].elapsed_s,
            "peak_rss_mb": max(rss_self, serving["server"]["peak_rss_mb"]),
        }

    def layer_metrics(self, offline: dict, serving: dict) -> Dict[str, float]:
        per_run = [self.tracer.run_metrics(i) for i in offline["traced_runs"]]

        # medians over the traced iterations of per-iteration values
        def med(key: str) -> float:
            return statistics.median(run.get(key, 0.0) for run in per_run)

        def rate(count_key: str, time_key: str) -> float:
            values = [run.get(count_key, 0.0) / run[time_key]
                      for run in per_run if run.get(time_key)]
            return statistics.median(values) if values else 0.0

        tokens = self.static_tokens() if self.w.embedding == "static" else 0
        for run in per_run:
            run["static_embed.tokens"] = tokens * run.get("static_embed.train_calls", 0)
        m: Dict[str, float] = {}
        for name in ("corpus.load_s", "checkpoint.load_s", "checkpoint.save_s",
                     "static_embed.train_s", "wordpiece.build_s", "wordpiece.tokenize_s",
                     "pretrain_data.create_s", "lm_training.train_s",
                     "lm_training.batch_loss_s", "transformer.encode_train_s",
                     "transformer.encode_infer_s", "features.featurize_s",
                     "estimator.train_s", "estimator.predict_s", "experiments.run_s",
                     "kernel.matmul_s", "kernel.gelu_s", "kernel.layer_norm_s",
                     "kernel.softmax_s", "kernel.lstm_step_s", "kernel.backward_s",
                     "kernel.adam_step_s", "reports.write_s"):
            m[name] = med(name)
        m["checkpoint.load_calls"] = med("checkpoint.load_calls")
        m["wordpiece.tokenize_calls"] = med("wordpiece.tokenize_calls")
        m["pretrain_data.examples"] = med("pretrain_data.examples")
        m["static_embed.tokens_per_s"] = rate("static_embed.tokens", "static_embed.train_s")
        m["lm_training.examples_per_s"] = rate("lm_training.examples_seen", "lm_training.train_s")
        m["transformer.pad_ratio"] = _ratio(per_run, "transformer.pad_positions", "transformer.positions")
        m["features.texts_per_s"] = rate("features.texts", "features.featurize_s")
        m["features.pad_ratio"] = _ratio(per_run, "features.pad_steps", "features.steps")
        m["features.degenerate"] = med("features.degenerate")
        m["estimator.epochs_run"] = med("estimator.epochs_run")
        m["estimator.epochs_per_s"] = rate("estimator.epochs_run", "estimator.train_s")
        m["experiments.folds"] = med("experiments.folds")
        m["kernel.matmul_calls"] = med("kernel.matmul_calls")
        m["kernel.matmul_gflop"] = med("kernel.matmul_flop") / 1e9
        m["kernel.lstm_steps"] = med("kernel.lstm_step_calls")
        m["kernel.adam_steps"] = med("kernel.adam_step_calls")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = med(f"{layer}.self_s")
        m["trace.spans"] = med("trace.spans")
        m["trace.overhead_s"] = (statistics.median(offline["traced_totals"])
                                 - statistics.median(offline["untraced_totals"]))

        # work pinned by the flags: the head trains for every configured epoch
        configured = KFOLD * self.w.head_epochs
        if m["estimator.epochs_run"] != configured:
            raise CheckFailed(f"estimator ran {m['estimator.epochs_run']} epochs, "
                              f"configured {configured}")

        server = serving["server"]
        # the closed loop is where back-to-back keep-alive requests stall in transport
        client_p50 = loadgen.percentile(serving["closed"].latencies_ms, 50)
        m["server.estimate_ms"] = statistics.median(server["estimate_ms"])
        m["server.transport_ms"] = client_p50 - m["server.estimate_ms"]
        statuses = {int(k): v for k, v in server["statuses"].items()}
        m["server.requests_ok"] = sum(v for k, v in statuses.items() if k == 200)
        m["server.requests_4xx"] = sum(v for k, v in statuses.items() if 400 <= k < 500)
        m["server.requests_failed"] = sum(v for k, v in statuses.items() if k >= 500)
        m["loadgen.late_ms"] = loadgen.percentile(serving["open"].late_ms, 99)
        self.tracer.write(self.dir / "spans.jsonl")
        return m

    def static_tokens(self) -> int:
        """Token positions in one CBOW epoch over the corpus."""
        from storypointer.corpus import clean_text, load_labeled, tokenize_words
        corpus = load_labeled(self.dir / "corpus.csv")
        return sum(len(tokenize_words(clean_text(r.raw_text))) for r in corpus.records)


def _ratio(runs: List[dict], part: str, whole: str) -> float:
    total = sum(run.get(whole, 0.0) for run in runs)
    return sum(run.get(part, 0.0) for run in runs) / total if total else 0.0


def stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM, then wait; kills it if it does not stop."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return code


# ---- entry point ----------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "storypointer" / "cli.py").is_file():
        print(f"error: no storypointer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        metrics = bench.run()
        correct, error = True, None
    except CheckFailed as exc:
        metrics, correct, error = {}, False, str(exc)
        bench.failed = max(bench.failed, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, "error": error,
              "metrics": metrics, "details": getattr(bench, "details", {})}
    bench.dir.mkdir(parents=True, exist_ok=True)
    (bench.dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n",
                                           encoding="utf-8")
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": correct, "attempted": max(1, bench.attempted), "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
