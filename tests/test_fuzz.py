"""Seeded mutation fuzz of every file the CLI reads and every request the server answers.

One valid file of each kind is cut, flipped, padded, duplicated or nested
in place, then run through its command in process; in the JSONL corpus,
one value is also replaced by a JSON value of another type. Each case
must end in exit 0 with nothing on stderr, or in exit 1 with exactly one
`error:` line, and never in an exception or a warning.

The whole bytes of a valid request to each route, request line, headers
and body, are mutated the same way and sent, one at a time, to one
in-process server. Each must get JSON replies with a 2xx, 4xx or 5xx
status, or a closed connection, and the server must still answer
/healthz afterwards.
"""

import json
import random
import re
import socket
import warnings

import pytest

from storypointer.cli import main

from test_cli import write_corpus_csv
from test_server import running, trained_service

CASES_PER_KIND = 50
MUTATIONS = ("flip", "truncate", "insert", "duplicate", "nest")
INSERTS = (b"\x00", b"\xff", b'"', b"\n", b"\r", b",", b"=", b"{")
NEST_DEPTH = 3000  # past the default recursion limit


def mutate(blob: bytes, how: str, rng: random.Random) -> bytes:
    if how == "nest":  # where a JSON value can start: a line's start or after ": "
        at = rng.choice([0] + [m.end() for m in re.finditer(rb"\n|: ", blob)])
        return blob[:at] + b"[" * NEST_DEPTH + blob[at:]
    at = rng.randrange(len(blob))
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1:]
    if how == "truncate":
        return blob[:at]
    if how == "insert":
        return blob[:at] + rng.choice(INSERTS) + blob[at:]
    end = rng.randrange(at, len(blob)) + 1  # duplicate blob[at:end]
    return blob[:end] + blob[at:end] + blob[end:]


CONFIG = """# a head trained on the fixture's static embedding
mode = pooled
output = linear
epochs = 2
patience = 2
batch_size = 8
lr = 0.01
val_fraction = 0.2
seed = 3
"""


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind the CLI reads, with the models they need."""
    root = tmp_path_factory.mktemp("valid")
    corpus = write_corpus_csv(root / "stories.csv")
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    docs = root / "docs.txt"
    docs.write_text("fix the billing export. add a login form.\n"
                    "migrate the search index. update the report cache.\n", encoding="utf-8")
    for argv in (
        ["ingest", "--corpus", corpus],
        ["pretrain-static", "--corpus", corpus, "--dimension", "6", "--epochs", "1"],
        ["pretrain-ctx", "--unlabeled", docs, "--layers", "1", "--hidden", "8", "--heads", "2",
         "--ff", "8", "--vocab-size", "80", "--epochs", "1", "--n-examples", "4"],
        ["train", "--corpus", corpus, "--embedding", root / "static.ckpt", "--config", root / "run.cfg"],
    ):
        assert main([str(a) for a in argv] + ["--out", str(root)]) == 0
    return root


# file kind -> (the valid file's name, the command that reads it as `{file}`)
KINDS = {
    "csv": ("stories.csv", ["ingest", "--corpus", "{file}", "--out", "{out}"]),
    "jsonl": ("corpus.jsonl", ["ingest", "--corpus", "{file}", "--out", "{out}"]),
    "config": ("run.cfg", ["train", "--corpus", "{valid}/stories.csv", "--embedding",
                           "{valid}/static.ckpt", "--config", "{file}", "--out", "{out}"]),
    "static": ("static.ckpt", ["predict", "--model", "{valid}/estimator.ckpt",
                               "--embedding", "{file}", "--text", "fix the login form"]),
    "encoder": ("encoder.ckpt", ["embed", "--model", "{file}", "--corpus", "{valid}/stories.csv",
                                 "--out", "{out}"]),
    "estimator": ("estimator.ckpt", ["predict", "--model", "{file}",
                                     "--embedding", "{valid}/static.ckpt", "--text", "fix it"]),
}


def run_mutated(valid, tmp_path, capsys, monkeypatch, kind, blob, how):
    """Runs the command that reads `kind` on `blob` and checks how it ends."""
    monkeypatch.chdir(tmp_path)  # a relative path a mutation makes lands here
    name, template = KINDS[kind]
    mutated = tmp_path / name
    mutated.write_bytes(blob)
    argv = [a.format(file=mutated, valid=valid, out=tmp_path / "out") for a in template]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert captured.err == ""
    else:
        assert (code, captured.out) == (1, ""), how
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("case", range(CASES_PER_KIND))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mutated_input_exits_cleanly(valid, tmp_path, capsys, monkeypatch, kind, case):
    how = MUTATIONS[case % len(MUTATIONS)]
    blob = mutate((valid / KINDS[kind][0]).read_bytes(), how, random.Random(f"{kind}-{case}"))
    run_mutated(valid, tmp_path, capsys, monkeypatch, kind, blob, how)


# a JSON string or scalar right after ": ", as the canonical JSONL corpus writes them
JSONL_VALUE = re.compile(rb': ("(?:[^"\\]|\\.)*"|[^,}\n]*)')
JSONL_KEYS = ("id", "project", "text", "effort")  # each line's values, in order


@pytest.mark.parametrize("case", range(2 * len(JSONL_KEYS)))
@pytest.mark.parametrize("value", ["null", "true", "0", "[]", "{}"])
def test_jsonl_value_of_another_type_exits_cleanly(valid, tmp_path, capsys, monkeypatch,
                                                    value, case):
    """The case picks the key whose value is replaced, its seed the line."""
    blob = (valid / KINDS["jsonl"][0]).read_bytes()
    spans = [m.span(1) for m in JSONL_VALUE.finditer(blob)]
    assert len(spans) % len(JSONL_KEYS) == 0
    start, end = random.Random(f"{value}-{case}").choice(spans[case % len(JSONL_KEYS)::len(JSONL_KEYS)])
    retyped = blob[:start] + value.encode() + blob[end:]
    run_mutated(valid, tmp_path, capsys, monkeypatch, "jsonl", retyped, f"{value} at {start}")


# a valid request to each route, whole: request line, headers and body
REQUESTS = {
    "estimate": (b"POST /estimate HTTP/1.1\r\nHost: test\r\n"
                 b"Content-Type: application/json\r\nContent-Length: 29\r\n\r\n"
                 b'{"text": "fix the login form"}'),
    "healthz": b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
}
REQUEST_CASES = 150  # per route


@pytest.fixture(scope="module")
def address():
    with running(trained_service("linear")) as bound:
        yield bound


def exchange(address, request: bytes) -> bytes:
    """Sends `request`, ends the sending side, and returns every byte the
    server sends back up to its close."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)  # no request waits for bytes that never come
        return b"".join(iter(lambda: sock.recv(65536), b""))


def replies(data: bytes):
    """(status, body) of each reply in `data`; each must be framed by its
    Content-Length and hold JSON."""
    out = []
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, head
        status_line, *fields = head.decode("latin-1").split("\r\n")
        headers = dict(field.split(": ", 1) for field in fields)
        assert headers["Content-Type"] == "application/json; charset=utf-8", head
        length = int(headers["Content-Length"])
        body, data = data[:length], data[length:]
        out.append((int(status_line.split()[1]), json.loads(body)))
    return out


@pytest.mark.parametrize("case", range(REQUEST_CASES))
@pytest.mark.parametrize("route", sorted(REQUESTS))
def test_mutated_request_gets_json_replies_or_a_close(address, route, case):
    how = MUTATIONS[case % len(MUTATIONS)]
    request = mutate(REQUESTS[route], how, random.Random(f"{route}-{case}"))
    for status, body in replies(exchange(address, request)):
        assert status // 100 in (2, 4, 5) and isinstance(body, dict), (how, request)
    assert replies(exchange(address, REQUESTS["healthz"])) == [(200, {"status": "ok"})]
