"""JSON endpoint serving effort estimates, with a liveness route.

`POST /estimate` answers estimates and `GET /healthz` answers 200 while
the process serves. Another method on either route gets 405 with an
`Allow` header, and any other path gets 404.

The service loads its models once and treats them as immutable, so the
threading server can answer concurrent requests without locks. Any
malformed request, a request line or headers the base handler cannot
parse included, gets a 4xx JSON error, a method no route answers gets a
JSON 501, and the process stays alive.
Every reply body is valid JSON: a reply that would hold a NaN or an
infinity, such as a non-finite estimate, becomes a 500 error instead.

A body is framed by one Content-Length of ASCII digits alone. A request
with any Transfer-Encoding gets 501, and a POST without Content-Length
411, each closing the connection, so no body bytes can be read as the
next request. A body above MAX_BODY_BYTES is refused unread. A client
that leaves, while its reply is written or between keep-alive requests,
ends its connection quietly.

Each request must arrive whole, request line, headers and body, within
READ_TIMEOUT_S seconds of the moment the handler starts waiting for its
request line, so the wait between keep-alive requests counts too. A
connection that misses this deadline is dropped without a reply, so a
slow, trickling or lying client cannot hold a handler thread. A reply is
written under the socket timeout that the request's last read left.
"""

from __future__ import annotations

import io
import json
import socket
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .corpus import bucketize
from .estimator import EstimatorModel, predict

ROUTE = "/estimate"
ALLOWED = {ROUTE: "POST", "/healthz": "GET"}  # the one method each route answers
MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT_S = 30.0


class _DeadlineSocketIO(socket.SocketIO):
    """Socket reads that must all finish by one deadline: each read waits
    at most the time left, and a read after the deadline raises
    TimeoutError, on which the base handler drops the connection."""

    deadline = 0.0  # time.monotonic() value; set per request

    def readinto(self, b):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not received in time")
        self._sock.settimeout(left)
        return super().readinto(b)


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
        # a request line with no version is answered as HTTP/1.0, with a
        # status line and headers, never as a bare HTTP/0.9 body
        default_request_version = "HTTP/1.0"

        def setup(self) -> None:
            super().setup()
            self.rfile.close()
            self._reader = _DeadlineSocketIO(self.connection, "rb")
            self.rfile = io.BufferedReader(self._reader)

        def handle_one_request(self) -> None:
            self._reader.deadline = time.monotonic() + READ_TIMEOUT_S
            try:
                super().handle_one_request()
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True  # the client has gone; nothing to report

        def log_message(self, fmt, *args):  # keep request logs out of stdout
            pass

        def _reply(self, status: int, payload: dict, close: bool = False,
                   allow: str = "") -> None:
            try:
                body = json.dumps(payload, allow_nan=False).encode("utf-8")
            except ValueError:  # NaN and infinity have no JSON form
                status, body = 500, b'{"error": "the reply holds a non-finite number"}'
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            if allow:
                self.send_header("Allow", allow)
            if close:  # the rest of the stream is not read, or not trusted
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def send_error(self, code: int, message: Optional[str] = None,
                       explain: Optional[str] = None) -> None:
            """The base handler's refusals, of a request line or headers it
            cannot parse or a method no route answers, as JSON that closes."""
            self._reply(code, {"error": message or self.responses[code][0]}, close=True)

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

        def _body_length(self, required: bool) -> Optional[int]:
            """The length the request declares for its body, or None after an
            error reply that closes the connection: any Transfer-Encoding
            (501), no Content-Length where `required` (411), or one that is
            not ASCII digits (400). A request without either has no body."""
            if "Transfer-Encoding" in self.headers:
                self._reply(501, {"error": "Transfer-Encoding is not supported; "
                                           "send Content-Length"}, close=True)
                return None
            declared = self.headers.get_all("Content-Length", [])
            if not declared:
                if required:
                    self._reply(411, {"error": "Content-Length is required"}, close=True)
                    return None
                return 0
            if len(declared) > 1 or not (declared[0].isascii() and declared[0].isdigit()):
                self._reply(400, {"error": "Content-Length must be one run of ASCII digits"},
                            close=True)
                return None
            digits = declared[0].lstrip("0")
            # more digits than int() parses is past MAX_BODY_BYTES anyway
            return int(digits or "0") if len(digits) <= 18 else MAX_BODY_BYTES + 1

        def do_POST(self) -> None:
            length = self._body_length(required=True)
            if length is None or not self._route_allows("POST", close=True):
                return
            if length > MAX_BODY_BYTES:
                self._reply(413, {"error": f"body is larger than {MAX_BODY_BYTES} bytes"},
                            close=True)
                return
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
                result = service.estimate(payload["text"])
            except Exception:  # a bad request must not kill the server
                traceback.print_exc()
                self._reply(500, {"error": "internal error"})
                return
            self._reply(200, result)

        def do_GET(self) -> None:
            length = self._body_length(required=False)
            if length is None:
                return
            # a GET body is never read, so one that declares a body ends its
            # connection instead of being parsed as the next request
            close = length != 0
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
