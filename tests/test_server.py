"""Inference endpoint: request contract, error handling, resilience."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storypointer import server as server_module
from storypointer.corpus import UnlabeledCorpus
from storypointer.estimator import EstimatorModel, HeadConfig, train_estimator
from storypointer.features import StaticFeaturizer
from storypointer.server import MAX_BODY_BYTES, EstimateService, build_server, parse_bind
from storypointer.static_embed import StaticTrainConfig, train_static

SENTENCES = [
    "add login form validation",
    "fix crash on empty cart",
    "migrate billing export job",
    "update search index nightly",
]


def trained_service(output: str) -> EstimateService:
    docs = UnlabeledCorpus(documents=SENTENCES * 4)
    embedder = train_static(docs, StaticTrainConfig(mode="cbow", dimension=6, epochs=2, seed=0))
    featurizer = StaticFeaturizer(embedder, mode="pooled")
    batch = featurizer.featurize(SENTENCES * 3)
    efforts = np.tile([2.0, 5.0, 3.0, 8.0], 3)
    config = HeadConfig(mode="pooled", output=output, dense_sizes=(6, 3), epochs=5,
                        patience=5, batch_size=6, seed=0)
    model = EstimatorModel(config, input_dim=6,
                           source={"kind": "static", "model_id": embedder.model_id})
    train_estimator(model, batch, efforts, batch, efforts)
    return EstimateService(model, featurizer)


@pytest.fixture(scope="module")
def service():
    return trained_service("linear")


@contextmanager
def running(service):
    """Serves `service` on a free port in a thread; yields (host, port)."""
    server = build_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def address(service):
    with running(service) as bound:
        yield bound


@pytest.fixture(scope="module")
def endpoint(address):
    host, port = address
    return f"http://{host}:{port}"


def raw_post(address, body: bytes, declared=None, half_close=False):
    """POST `body` under the Content-Length header value `declared` (default:
    the body's length) over a fresh socket; returns the reply's status, or None if the server
    closed the connection without one."""
    declared = len(body) if declared is None else declared
    head = f"POST /estimate HTTP/1.1\r\nHost: test\r\nContent-Length: {declared}\r\n\r\n"
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head.encode("ascii"))
        try:
            sock.sendall(body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server may refuse and close before the body arrives
            pass
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1]) if status_line else None


def post(url, body: bytes, path="/estimate"):
    request = urllib.request.Request(
        url + path, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        with error:  # closes the connection the error response holds
            return error.code, json.loads(error.read().decode("utf-8"))


class TestService:
    def test_estimate_returns_the_full_contract(self, service):
        out = service.estimate("fix crash on cart")
        assert set(out) == {"effort", "class", "model_id", "degenerate"}
        assert 1.0 <= out["effort"] <= 100.0
        assert out["class"] in (1, 2, 3, 5, 8, 13, 20, 40, 100)
        assert out["model_id"].startswith("estimator-pooled-linear-on-")
        assert out["degenerate"] is False

    def test_unusable_text_is_flagged_but_estimated(self, service):
        out = service.estimate("")
        assert out["degenerate"] is True
        assert 1.0 <= out["effort"] <= 100.0

    def test_mode_mismatch_is_rejected_at_startup(self, service):
        seq_model = EstimatorModel(HeadConfig(mode="sequence", dense_sizes=(4, 2)),
                                   input_dim=6)
        with pytest.raises(ValueError):
            EstimateService(seq_model, service.featurizer)

    def test_embedding_kind_mismatch_is_rejected(self, service):
        mismatched = EstimatorModel(
            HeadConfig(mode="pooled", dense_sizes=(4, 2)), input_dim=6,
            source={"kind": "contextual", "model_id": "ctx-x"},
        )
        with pytest.raises(ValueError):
            EstimateService(mismatched, service.featurizer)


class TestSoftmaxHead:
    def test_served_class_is_the_bucket_effort(self):
        softmax_service = trained_service("softmax")
        texts = SENTENCES + ["fix login export", ""]
        with running(softmax_service) as (host, port):
            for text in texts:
                status, reply = post(f"http://{host}:{port}", json.dumps({"text": text}).encode())
                assert status == 200
                assert reply["class"] in (1, 2, 3, 5, 8, 13, 20, 40, 100)
                assert reply["class"] == reply["effort"]
                assert reply["model_id"].startswith("estimator-pooled-softmax-on-")
                assert reply == softmax_service.estimate(text)


class TestEndpoint:
    def test_valid_request_round_trips(self, endpoint):
        status, out = post(endpoint, json.dumps({"text": "migrate billing export"}).encode())
        assert status == 200
        assert set(out) == {"effort", "class", "model_id", "degenerate"}
        assert 1.0 <= out["effort"] <= 100.0

    def test_responses_are_deterministic(self, endpoint):
        body = json.dumps({"text": "update search index"}).encode()
        first = post(endpoint, body)
        second = post(endpoint, body)
        assert first == second

    def test_malformed_json_is_a_client_error(self, endpoint):
        status, out = post(endpoint, b"{not json")
        assert status == 400
        assert "error" in out

    def test_missing_text_field_is_a_client_error(self, endpoint):
        status, _ = post(endpoint, json.dumps({"body": "hello"}).encode())
        assert status == 400
        status, _ = post(endpoint, json.dumps({"text": 42}).encode())
        assert status == 400
        status, _ = post(endpoint, json.dumps(["text"]).encode())
        assert status == 400

    def test_unknown_route_is_not_found(self, endpoint):
        status, _ = post(endpoint, json.dumps({"text": "x"}).encode(), path="/predict")
        assert status == 404

    def test_get_is_not_allowed(self, endpoint):
        request = urllib.request.Request(endpoint + "/estimate", method="GET")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        caught.value.close()
        assert caught.value.code == 405
        assert caught.value.headers["Allow"] == "POST"

    def test_healthz_is_ok(self, endpoint):
        with urllib.request.urlopen(endpoint + "/healthz", timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read().decode("utf-8")) == {"status": "ok"}

    def test_unknown_get_path_is_not_found(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(endpoint + "/metrics", timeout=10)
        caught.value.close()
        assert caught.value.code == 404
        assert "Allow" not in caught.value.headers

    def test_post_to_healthz_is_not_allowed(self, endpoint):
        request = urllib.request.Request(endpoint + "/healthz", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        caught.value.close()
        assert caught.value.code == 405
        assert caught.value.headers["Allow"] == "GET"

    def test_gets_keep_the_connection_for_an_estimate(self, address):
        conn = http.client.HTTPConnection(*address, timeout=10)

        def ask(method, path, body=None):
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.getheader("Allow"), json.loads(response.read())

        try:
            assert ask("GET", "/healthz") == (200, None, {"status": "ok"})
            sock = conn.sock
            assert ask("GET", "/estimate")[:2] == (405, "POST")
            assert ask("GET", "/nowhere")[:2] == (404, None)
            status, _, out = ask("POST", "/estimate", json.dumps({"text": "fix the cart"}))
            assert status == 200
            assert set(out) == {"effort", "class", "model_id", "degenerate"}
            assert conn.sock is sock  # one connection served all four requests
        finally:
            conn.close()

    def test_server_survives_bad_requests(self, endpoint):
        for payload in (b"", b"\xff\xfe garbage", json.dumps({"text": None}).encode()):
            status, _ = post(endpoint, payload)
            assert status == 400
        status, _ = post(endpoint, json.dumps({"text": "still alive"}).encode())
        assert status == 200


class TestHardening:
    def test_oversized_body_is_refused_unread(self, address, endpoint):
        assert raw_post(address, b"{}", declared=MAX_BODY_BYTES + 1) == 413
        status, _ = post(endpoint, json.dumps({"text": "still alive"}).encode())
        assert status == 200

    @pytest.mark.parametrize("declared", ["-1", "12abc", ""])
    def test_bad_content_length_is_a_client_error(self, address, declared):
        assert raw_post(address, b"", declared=declared) == 400

    def test_body_cut_short_is_a_client_error(self, address):
        body = json.dumps({"text": "add a login form"}).encode()
        assert raw_post(address, body, declared=len(body) + 10, half_close=True) == 400

    def test_lying_client_is_dropped_while_others_are_served(self, service, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.5)
        with running(service) as (host, port):
            with socket.create_connection((host, port), timeout=10) as liar:
                liar.sendall(b"POST /estimate HTTP/1.1\r\nHost: test\r\n"
                             b"Content-Length: 1000\r\n\r\n" + b'{"text": "a"}')
                status, _ = post(f"http://{host}:{port}", json.dumps({"text": "fix it"}).encode())
                assert status == 200
                start = time.monotonic()
                assert liar.recv(1024) == b""  # closed without a reply
                assert time.monotonic() - start < 5.0

    def test_get_with_a_body_ends_its_connection(self, address):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\n\r\nhello"
                         b"POST /estimate HTTP/1.1\r\nHost: test\r\nContent-Length: 13\r\n\r\n"
                         b'{"text": "a"}')
            replies = b"".join(iter(lambda: sock.recv(4096), b""))
        # one reply, then the server closes instead of parsing "helloPOST ..."
        assert replies.startswith(b"HTTP/1.1 200 ")
        assert replies.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in replies

    def test_unexpected_error_is_a_generic_500(self):
        class Broken:
            def estimate(self, text):
                raise RuntimeError("secret internal detail")

        with running(Broken()) as (host, port):
            status, out = post(f"http://{host}:{port}", json.dumps({"text": "x"}).encode())
        assert status == 500
        assert out == {"error": "internal error"}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestBodyFuzz:
    """Whatever the body, the reply is 200, 400 or 413 and the server lives on."""

    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes(self, address, body):
        assert raw_post(address, body) in (200, 400)
        assert raw_post(address, b'{"text": "still alive"}') == 200

    @given(JSON_VALUES | st.fixed_dictionaries({"text": JSON_VALUES}))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_json_values(self, address, value):
        assert raw_post(address, json.dumps(value).encode("utf-8")) in (200, 400)
        assert raw_post(address, b'{"text": "still alive"}') == 200

    @given(st.binary(max_size=100) | st.just(b'{"text": "add a login form"}'),
           st.integers(-40, 40) | st.just(MAX_BODY_BYTES + 1))
    @settings(max_examples=60, deadline=None)
    def test_content_length_off_by_any_amount(self, address, body, offset):
        declared = max(0, len(body) + offset) if offset <= 40 else offset
        status = raw_post(address, body, declared=declared, half_close=declared > len(body))
        assert status in (200, 400, 413)
        assert raw_post(address, b'{"text": "still alive"}') == 200


class TestBindParsing:
    def test_host_and_port_are_split(self):
        assert parse_bind("0.0.0.0:8080") == ("0.0.0.0", 8080)
        assert parse_bind("localhost:9999") == ("localhost", 9999)

    @pytest.mark.parametrize("bad", ["8080", "host:", ":1234", "host:port", "host:65536"])
    def test_malformed_addresses_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_bind(bad)
