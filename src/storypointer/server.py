"""JSON endpoint serving effort estimates, with a liveness route.

`POST /estimate` answers estimates and `GET /healthz` answers 200 while
the process serves. Another method on either route gets 405 with an
`Allow` header, and any other path gets 404.

The service loads its models once and treats them as immutable, so the
threading server can answer concurrent requests without locks. Any
malformed request gets a 4xx JSON error and the process stays alive.
A body above MAX_BODY_BYTES is refused unread, and a connection whose
client sends nothing for READ_TIMEOUT_S seconds, mid-request or
between keep-alive requests, is dropped, so a slow or lying client
cannot hold a handler thread.
"""

from __future__ import annotations

import json
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from .corpus import bucketize
from .estimator import EstimatorModel, predict

ROUTE = "/estimate"
ALLOWED = {ROUTE: "POST", "/healthz": "GET"}  # the one method each route answers
MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT_S = 30.0


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
        effort = float(predict(self.estimator, batch)[0])
        return {
            "effort": effort,
            "class": bucketize(effort),
            "model_id": self.estimator.model_id,
            "degenerate": bool(batch.degenerate[0]),
        }


def _make_handler(service: EstimateService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = READ_TIMEOUT_S  # set on the socket of every connection

        def log_message(self, fmt, *args):  # keep request logs out of stdout
            pass

        def _reply(self, status: int, payload: dict, close: bool = False,
                   allow: str = "") -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            if allow:
                self.send_header("Allow", allow)
            if close:  # the rest of the stream is not read, or not trusted
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _route_allows(self, method: str, close: bool) -> bool:
            """Replies 404 or 405 unless the path answers `method`; `close`
            drops the connection with that reply, for a body left unread."""
            allowed = ALLOWED.get(self.path)
            if allowed is None:
                self._reply(404, {"error": f"unknown route {self.path}"}, close=close)
            elif allowed != method:
                self._reply(405, {"error": f"{self.path} answers {allowed} only"},
                            close=close, allow=allowed)
            return allowed == method

        def do_POST(self) -> None:
            if not self._route_allows("POST", close=True):
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError
            except ValueError:
                self._reply(400, {"error": "Content-Length must be a non-negative integer"},
                            close=True)
                return
            if length > MAX_BODY_BYTES:
                self._reply(413, {"error": f"body is larger than {MAX_BODY_BYTES} bytes"},
                            close=True)
                return
            # a client silent for READ_TIMEOUT_S makes this raise TimeoutError,
            # on which the base handler drops the connection
            raw = self.rfile.read(length)
            if len(raw) < length:
                self._reply(400, {"error": "body is shorter than Content-Length"}, close=True)
                return
            try:
                payload = json.loads(raw.decode("utf-8"))
                if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
                    raise ValueError('body must be a JSON object with a string "text" field')
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            try:
                self._reply(200, service.estimate(payload["text"]))
            except Exception:  # a bad request must not kill the server
                traceback.print_exc()
                self._reply(500, {"error": "internal error"})

        def do_GET(self) -> None:
            # a GET body is never read, so one that declares a body ends its
            # connection instead of being parsed as the next request
            close = self.headers.get("Content-Length", "0").strip() != "0"
            if self._route_allows("GET", close=close):
                self._reply(200, {"status": "ok"}, close=close)

    return Handler


def build_server(service: EstimateService, host: str = "127.0.0.1",
                 port: int = 0) -> ThreadingHTTPServer:
    """Bound but not yet serving; port 0 picks a free port."""
    return ThreadingHTTPServer((host, port), _make_handler(service))


def parse_bind(bind: str) -> Tuple[str, int]:
    host, _, port = bind.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
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
