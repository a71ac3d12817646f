"""Single-route JSON endpoint serving effort estimates.

The service loads its models once and treats them as immutable, so the
threading server can answer concurrent requests without locks. Any
malformed request gets a 4xx JSON error and the process stays alive.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from .estimator import EstimatorModel, predict

ROUTE = "/estimate"


class EstimateService:
    """Immutable featurizer + estimator pair shared across requests."""

    def __init__(self, estimator: EstimatorModel, featurizer):
        if estimator.config.mode != featurizer.mode:
            raise ValueError(
                f"estimator expects {estimator.config.mode!r} inputs but the "
                f"featurizer produces {featurizer.mode!r}"
            )
        source_kind = estimator.source.get("kind")
        featurizer_kind = featurizer.describe()["kind"]
        if source_kind is not None and source_kind != featurizer_kind:
            raise ValueError(
                f"estimator was trained on {source_kind} embeddings, "
                f"got {featurizer_kind}"
            )
        self.estimator = estimator
        self.featurizer = featurizer

    def estimate(self, text: str) -> dict:
        batch = self.featurizer.featurize([text])
        result = predict(self.estimator, batch)[0]
        return {
            "effort": result.effort,
            "class": result.bucket,
            "model_id": self.estimator.model_id,
            "degenerate": bool(batch.degenerate[0]),
        }


def _make_handler(service: EstimateService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # keep request logs out of stdout
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            if self.path != ROUTE:
                self._reply(404, {"error": f"unknown route {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length > 0 else b""
                payload = json.loads(raw.decode("utf-8"))
                if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
                    raise ValueError('body must be a JSON object with a string "text" field')
            except (ValueError, UnicodeDecodeError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            try:
                self._reply(200, service.estimate(payload["text"]))
            except Exception as exc:  # a bad request must not kill the server
                self._reply(500, {"error": str(exc)})

        def do_GET(self) -> None:
            self._reply(405, {"error": "POST JSON to " + ROUTE})

    return Handler


def build_server(service: EstimateService, host: str = "127.0.0.1",
                 port: int = 0) -> ThreadingHTTPServer:
    """Bound but not yet serving; port 0 picks a free port."""
    return ThreadingHTTPServer((host, port), _make_handler(service))


def parse_bind(bind: str) -> Tuple[str, int]:
    host, _, port = bind.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bind address must look like HOST:PORT, got {bind!r}")
    return host, int(port)


def serve_forever(service: EstimateService, bind: str,
                  announce=None) -> None:
    host, port = parse_bind(bind)
    server = build_server(service, host, port)
    if announce is not None:
        announce(server.server_address)
    try:
        server.serve_forever()
    finally:
        server.server_close()
