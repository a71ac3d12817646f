"""Runs `storypointer serve` in this process and reports on exit.

Usage: python3 perfbench/serve_child.py STATS_JSON TRACE(0|1) SERVE_ARGS...

SIGTERM stops the server cleanly. On the way out the process writes
its peak RSS to STATS_JSON and, when TRACE is 1, the time spent in
`EstimateService.estimate` per request and the reply counts by status.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from storypointer import cli, server  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    stats_path, traced, serve_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    estimate_ms = []
    statuses = {}
    lock = threading.Lock()  # handler threads update the counts
    if traced:
        original_estimate = server.EstimateService.estimate
        original_handler = server._make_handler

        def timed_estimate(self, text):
            start = time.perf_counter()
            try:
                return original_estimate(self, text)
            finally:
                estimate_ms.append((time.perf_counter() - start) * 1e3)

        def counting_handler(service):
            handler = original_handler(service)
            original_reply = handler._reply

            def reply(self, status, payload):
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
                original_reply(self, status, payload)

            handler._reply = reply
            return handler

        server.EstimateService.estimate = timed_estimate
        server._make_handler = counting_handler
    signal.signal(signal.SIGTERM, _interrupt)
    code = cli.main(["serve", *serve_args])
    stats = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "estimate_ms": estimate_ms,
        "statuses": {str(k): v for k, v in statuses.items()},
    }
    Path(stats_path).write_text(json.dumps(stats), encoding="utf-8")
    return 0 if code in (0, 130) else code


if __name__ == "__main__":
    sys.exit(main())
