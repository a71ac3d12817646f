"""Keep-alive HTTP load against POST /estimate.

Each client thread owns one `http.client` connection. The open loop
assigns request i to client i mod n and makes it due at t0 + i / rate;
its latency runs from the due time, so a stall also charges the
requests queued behind it. The closed loop sends each client's next
request as soon as the previous reply is read.

Request i carries a malformed body when i % 100 == 7 (expects a 400)
and otherwise the well-formed text i mod len(texts) (expects a 200
equal to the in-process estimate for that text).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from synth import MALFORMED

ROUTE = "/estimate"


@dataclass
class Outcome:
    latencies_ms: List[float] = field(default_factory=list)  # well-formed requests only
    late_ms: List[float] = field(default_factory=list)
    sent: int = 0
    ok: int = 0
    rejected: int = 0      # malformed bodies answered with a 400
    failed: int = 0        # wrong status, wrong body or transport error
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def merge(self, other: "Outcome") -> None:
        self.latencies_ms += other.latencies_ms
        self.late_ms += other.late_ms
        self.sent += other.sent
        self.ok += other.ok
        self.rejected += other.rejected
        self.failed += other.failed
        self.errors += other.errors[:5]


class Requests:
    """Request bodies and the replies they must get."""

    def __init__(self, texts: Sequence[str], expected: Sequence[dict]):
        self.bodies = [json.dumps({"text": t}).encode("utf-8") for t in texts]
        self.expected = list(expected)

    def body(self, i: int):
        if i % 100 == 7:
            return MALFORMED[(i // 100) % len(MALFORMED)], None
        j = i % len(self.bodies)
        return self.bodies[j], self.expected[j]


def post(conn: http.client.HTTPConnection, body: bytes):
    conn.request("POST", ROUTE, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def send(conn, requests: Requests, i: int, outcome: Outcome,
          since: Optional[float] = None) -> http.client.HTTPConnection:
    """One request; returns the connection to use next (fresh after an error).

    With `since` set, a well-formed request's latency from that time to
    the end of its reply is recorded, before the reply is checked.
    """
    body, expected = requests.body(i)
    outcome.sent += 1
    try:
        status, data = post(conn, body)
    except (OSError, http.client.HTTPException) as exc:
        outcome.failed += 1
        outcome.errors.append(f"request {i}: {exc!r}")
        conn.close()
        return http.client.HTTPConnection(conn.host, conn.port, timeout=conn.timeout)
    if since is not None and expected is not None:
        outcome.latencies_ms.append((time.perf_counter() - since) * 1e3)
    if expected is None:
        if status == 400:
            outcome.rejected += 1
        else:
            outcome.failed += 1
            outcome.errors.append(f"request {i}: malformed body got {status}")
    elif status == 200 and json.loads(data) == expected:
        outcome.ok += 1
    else:
        outcome.failed += 1
        outcome.errors.append(f"request {i}: status {status}, body {data[:200]!r}")
    return conn


def _run_clients(port: int, n_clients: int, target) -> List[Outcome]:
    outcomes = [Outcome() for _ in range(n_clients)]
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=30) for _ in range(n_clients)]
    threads = [threading.Thread(target=target, args=(k, conns[k], outcomes[k]))
               for k in range(n_clients)]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        for conn in conns:
            conn.close()
    return outcomes


def open_loop(port: int, requests: Requests, rate: float, seconds: float,
              n_clients: int, first: int = 0) -> Outcome:
    total = max(1, int(rate * seconds))
    t0 = time.perf_counter() + 0.05

    def client(k: int, conn, outcome: Outcome) -> None:
        for i in range(k, total, n_clients):
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcome.late_ms.append((time.perf_counter() - due) * 1e3)
            conn = send(conn, requests, first + i, outcome, since=due)
        conn.close()

    result = Outcome()
    for outcome in _run_clients(port, n_clients, client):
        result.merge(outcome)
    result.elapsed_s = time.perf_counter() - t0
    return result


def closed_loop(port: int, requests: Requests, seconds: float, n_clients: int,
                first: int = 0) -> Outcome:
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()

    def client(k: int, conn, outcome: Outcome) -> None:
        i = k
        while time.perf_counter() < deadline:
            conn = send(conn, requests, first + i, outcome, since=time.perf_counter())
            i += n_clients
        conn.close()

    result = Outcome()
    for outcome in _run_clients(port, n_clients, client):
        result.merge(outcome)
    result.elapsed_s = time.perf_counter() - start
    return result


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def summary(outcome: Outcome) -> Dict[str, float]:
    return {
        "sent": outcome.sent, "ok": outcome.ok, "rejected": outcome.rejected,
        "failed": outcome.failed, "elapsed_s": outcome.elapsed_s,
        "p50_ms": percentile(outcome.latencies_ms, 50),
        "p90_ms": percentile(outcome.latencies_ms, 90),
        "latencies_ms": [round(v, 4) for v in outcome.latencies_ms],
    }
