"""httpkit's client and push side: kept-alive connections, the one retry
policy (deliver) and the keyed worker pool every service runs its
deliveries and serves its connections on."""

import ast
import email.utils
import http.client
import json
import selectors
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

import giots
from giots import httpkit
from giots.httpkit import (
    DELIVERY_RETRY_DELAY,
    WORKER_THREADS,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    Stack,
    TransportError,
    deliver,
    request_json,
    run_service,
)
from giots.jsonfields import valid_millis, valid_url

from conftest import UNPARSABLE_URLS

REFUSED = TransportError("connection refused")


# --- kept-alive connections ----------------------------------------------------------


@pytest.fixture
def connects(monkeypatch):
    """Counts HTTPConnection.connect calls, as the benchmark's tracer does."""
    count = [0]
    original = http.client.HTTPConnection.connect

    def counted(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    return count


class _Counting(JsonHttpService):
    """POST /receipts echoes its body and counts it; GET /slow waits until
    ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.bodies = []
        self.release = threading.Event()
        self.router.add("POST", "/receipts", self._receive)
        self.router.add("GET", "/slow", lambda req: (self.release.wait(5), HttpResponse(200))[1])

    def _receive(self, request):
        self.bodies.append(request.json())
        return HttpResponse(200, request.json())


@pytest.fixture
def service():
    counting = _Counting()
    handle = run_service(counting, 0)
    yield counting, handle
    counting.release.set()
    handle.stop()


def _plain_server(idle_timeout, keep_alive=None):
    """A single-threaded stdlib HTTP/1.1 server outside the stack, like the
    benchmark's sink; it counts POSTs, closes a connection idle for
    ``idle_timeout`` and may announce a Keep-Alive timeout it does not keep."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = idle_timeout

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            with server.lock:
                server.receipts += 1
            self.send_response(200)
            self.send_header("Content-Length", "2")
            if keep_alive:
                self.send_header("Keep-Alive", keep_alive)
            self.end_headers()
            self.wfile.write(b"{}")

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.lock, server.receipts = threading.Lock(), 0
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    return server


def test_sequential_requests_to_one_service_share_one_connection(service, connects):
    _, handle = service
    for _ in range(50):
        assert request_json("GET", handle.url + "/health")[0] == 200
    assert connects[0] == 1


def test_kept_alive_requests_do_not_wait_for_delayed_acks(service):
    _, handle = service
    started = time.monotonic()
    for index in range(50):
        assert request_json("POST", handle.url + "/receipts", body={"n": index})[0] == 200
    assert time.monotonic() - started < 1.0  # a delayed-ACK stall is ~40 ms a request


def test_threads_sharing_the_pool_never_share_a_connection(service, connects):
    counting, handle = service
    answers, errors = [], []

    def post(worker):
        try:
            for index in range(40):
                body = {"worker": worker, "index": index}
                answer = request_json("POST", handle.url + "/receipts", body=body)
                answers.append(answer == (200, body))
        except Exception as exc:  # recorded, so the assert below names it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=post, args=(worker,)) for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and answers == [True] * 320
    assert len(counting.bodies) == 320
    assert connects[0] < 320 // 2  # most requests went out on a reused connection
    assert len(httpkit._idle.get(("http", "127.0.0.1", handle.port), ())) <= httpkit.IDLE_PER_PEER


def test_a_server_that_announces_no_keep_alive_gets_a_connection_per_request(connects):
    server = _plain_server(idle_timeout=3.0)  # a kept connection would stall the other thread
    elapsed = []

    def post_five():
        started = time.monotonic()
        for index in range(5):
            assert request_json("POST", server.url + "/", body={"n": index})[0] == 200
        elapsed.append(time.monotonic() - started)

    try:
        threads = [threading.Thread(target=post_five) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert len(elapsed) == 2 and max(elapsed) < 1.0
        assert server.receipts == 10
        assert connects[0] == 10
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("url", ["ftp://127.0.0.1/x", "http:///x"] + UNPARSABLE_URLS)
def test_a_url_that_is_not_a_reachable_http_url_is_a_transport_error(url):
    assert valid_url(url) is False
    with pytest.raises(TransportError):
        request_json("GET", url)


def test_a_duration_is_an_integer_of_milliseconds_a_thread_can_wait():
    longest = int(threading.TIMEOUT_MAX * 1000)
    assert all(valid_millis(v) for v in (0, 1, longest))
    assert not any(valid_millis(v) for v in (-1, longest + 1, 10**13, True, 1.5, "5", None))


def test_a_stopped_service_is_not_answered_over_a_pooled_connection(service):
    counting, handle = service
    assert request_json("POST", handle.url + "/receipts", body={})[0] == 200
    handle.stop()
    with pytest.raises(TransportError):
        request_json("POST", handle.url + "/receipts", body={})
    assert len(counting.bodies) == 1
    restarted = run_service(JsonHttpService(), handle.port)
    try:
        assert request_json("GET", handle.url + "/health")[1]["status"] == "ok"
    finally:
        restarted.stop()


def test_a_post_on_a_connection_closed_while_idle_reaches_the_server_once(monkeypatch):
    server = _plain_server(idle_timeout=0.1, keep_alive="timeout=5")  # closes early
    try:
        assert request_json("POST", server.url + "/", body={})[0] == 200
        time.sleep(0.6)  # the server has closed the idle connection
        assert request_json("POST", server.url + "/", body={})[0] == 200  # on a new one
        assert server.receipts == 2
        time.sleep(0.6)
        # the close lands between the check and the send: fail, never resend
        monkeypatch.setattr(httpkit, "_quiet", lambda sock: True)
        with pytest.raises(TransportError):
            request_json("POST", server.url + "/", body={})
        assert server.receipts == 2
    finally:
        server.shutdown()
        server.server_close()


def test_a_chunked_body_is_not_read_and_ends_the_connection(service):
    counting, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
        sock.sendall(b"POST /receipts HTTP/1.1\r\nHost: peer\r\n"
                     b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b'8\r\n{"a": 1}\r\n0\r\n\r\n')
        response = http.client.HTTPResponse(sock)
        response.begin()
        response.read()
    assert (response.status, response.getheader("Connection")) == (400, "close")
    assert response.will_close
    assert counting.bodies == []


@pytest.mark.parametrize("length", [b"-1", b"abc", b"1_0", b"+5"])
def test_a_bad_content_length_is_answered_400_and_ends_the_connection(service, length):
    counting, handle = service
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
        sock.sendall(b"POST /receipts HTTP/1.1\r\nHost: peer\r\nContent-Type: application/json\r\n"
                     b"Content-Length: " + length + b'\r\n\r\n{"a": 1}')
        response = http.client.HTTPResponse(sock)
        response.begin()
        response.read()
    assert (response.status, response.getheader("Connection")) == (400, "close")
    assert time.monotonic() - started < 1.0  # not held until the socket times out
    assert counting.bodies == []


@pytest.mark.parametrize("body", ["NaN", "[Infinity]", '{"a": -Infinity}', "1e999", "1" * 5000],
                         ids=["nan", "infinity", "minus-infinity", "overflow", "5000-digits"])
def test_a_number_no_json_reply_could_carry_is_refused_with_400(service, body):
    counting, handle = service
    status, payload = request_json("POST", handle.url + "/receipts", body=body)
    assert status == 400
    assert "malformed JSON body" in payload["message"]
    assert counting.bodies == []


def test_a_hung_peer_fails_within_the_timeout_on_a_pooled_connection(service, connects):
    _, handle = service
    assert request_json("GET", handle.url + "/health")[0] == 200
    started = time.monotonic()
    with pytest.raises(TransportError):
        request_json("GET", handle.url + "/slow", timeout=0.3)
    assert time.monotonic() - started < 1.0
    assert connects[0] == 1  # the hung request went out on the pooled connection


# --- framing ---------------------------------------------------------------------------


def _post(body: bytes, version: bytes = b"1.1") -> bytes:
    return (b"POST /receipts HTTP/" + version + b"\r\nHost: peer\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body) + body)


def _read_reply(reader):
    """(status, headers, body) of one reply read from a raw socket's reader."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", 0)))


def _closed(sock, reader) -> bool:
    """The server ended the connection: the next read is EOF, not a wait."""
    sock.settimeout(1.0)
    return reader.read(1) == b""


def test_two_pipelined_requests_get_two_replies_in_order(service):
    counting, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(_post(b'{"n": 1}') + _post(b'{"n": 2}'))
        replies = [_read_reply(reader) for _ in range(2)]
    assert [(status, json.loads(body)) for status, _, body in replies] == [
        (200, {"n": 1}), (200, {"n": 2})]
    assert counting.bodies == [{"n": 1}, {"n": 2}]


def test_an_http_1_0_request_is_answered_with_connection_close(service):
    _, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(_post(b'{"n": 1}', version=b"1.0"))
        status, headers, _ = _read_reply(reader)
        assert (status, headers.get("connection")) == (200, "close")
        assert _closed(sock, reader)


def test_expect_100_continue_is_answered_before_the_body_is_sent(service):
    counting, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(b"POST /receipts HTTP/1.1\r\nHost: peer\r\nExpect: 100-continue\r\n"
                     b"Content-Type: application/json\r\nContent-Length: 8\r\n\r\n")
        assert _read_reply(reader)[0] == 100
        sock.sendall(b'{"n": 1}')
        status, _, body = _read_reply(reader)
    assert (status, json.loads(body)) == (200, {"n": 1})
    assert counting.bodies == [{"n": 1}]


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /health extra HTTP/1.1\r\n\r\n", 400),
    (b"GET /health HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
     431),
    (b"PATCH /health HTTP/1.1\r\nHost: peer\r\n\r\n", 501),
], ids=["garbage-request-line", "101-header-lines", "unsupported-method"])
def test_a_malformed_request_is_refused_and_ends_the_connection(service, request_bytes, status):
    _, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(request_bytes)
        assert _read_reply(reader)[0] == status
        assert _closed(sock, reader)


@pytest.mark.parametrize("length", [b"1000000000000", b"3000000000"])
def test_a_body_too_large_to_hold_is_answered_413_unread_and_ends_the_connection(service, length):
    counting, handle = service
    assert int(length) > httpkit.MAX_BODY
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(b"POST /receipts HTTP/1.1\r\nHost: peer\r\nContent-Type: application/json\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n")
        status, headers, body = _read_reply(reader)
        assert (status, headers.get("connection")) == (413, "close")
        assert json.loads(body)["error"] == "ContentTooLarge"
        assert _closed(sock, reader)
    assert counting.bodies == []


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /health HTTP/1.1\r\nHost: peer\r\n\r\n", 200),
    (b"GET /no/such/path HTTP/1.1\r\nHost: peer\r\n\r\n", 404),
    (b"POST /receipts HTTP/1.1\r\nHost: peer\r\nContent-Length: x\r\n\r\n", 400),
])
def test_every_reply_carries_a_date(service, request_bytes, status):
    _, handle = service
    with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(request_bytes)
        answered, headers, _ = _read_reply(reader)
    assert answered == status
    stamp = email.utils.parsedate_to_datetime(headers["date"]).timestamp()
    assert abs(stamp - time.time()) < 5


@pytest.mark.parametrize("headers", [
    {"X-Note": "a\r\nX-Injected: 1"},
    {"X-Note\r\nX-Injected": "1"},
    {"X-Note": "a\nb"},
])
def test_a_header_with_a_line_break_is_refused_before_anything_is_sent(service, headers):
    counting, handle = service
    with pytest.raises(ValueError):
        request_json("POST", handle.url + "/receipts", body={"n": 1}, headers=headers)
    assert request_json("POST", handle.url + "/receipts", body={"n": 2})[0] == 200
    assert counting.bodies == [{"n": 2}]


@pytest.mark.parametrize("path", ["/receipts\x01", "/rec eipts", "/receipts\x7f"])
def test_a_target_with_a_space_or_control_character_is_a_transport_error(service, path):
    counting, handle = service
    with pytest.raises(TransportError):
        request_json("POST", handle.url + path, body={"n": 1})
    assert counting.bodies == []


def test_a_chunked_reply_is_decoded_and_its_connection_reused(connects):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 2.0

        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Keep-Alive", "timeout=5")
            self.end_headers()
            for piece in (b'{"a": ', b"[1, 2]", b"}"):
                self.wfile.write(b"%x;note=1\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\nX-Trailer: t\r\n\r\n")

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}/"
    try:
        assert request_json("GET", url) == (200, {"a": [1, 2]})
        assert request_json("GET", url) == (200, {"a": [1, 2]})
        assert connects[0] == 1  # the chunked framing was read to its end
    finally:
        server.shutdown()
        server.server_close()


def test_a_reply_cut_short_of_its_length_is_a_transport_error_and_not_pooled():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def answer_short():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: 10\r\nKeep-Alive: timeout=5\r\n\r\n{}")

    thread = threading.Thread(target=answer_short, daemon=True)
    thread.start()
    try:
        with pytest.raises(TransportError):
            request_json("GET", f"http://127.0.0.1:{port}/", timeout=2)
        assert ("http", "127.0.0.1", port) not in httpkit._idle
    finally:
        thread.join(5)
        listener.close()
    assert not thread.is_alive()


def test_connections_beyond_the_cap_are_answered_503_until_some_close(service):
    _, handle = service
    held = [socket.create_connection(("127.0.0.1", handle.port), timeout=5)
            for _ in range(httpkit.MAX_CONNECTIONS)]
    try:
        started = time.monotonic()
        status, payload = request_json("GET", handle.url + "/health", timeout=1.0)
        assert time.monotonic() - started < 1.0
        assert (status, payload["error"]) == (503, "ServiceUnavailable")
    finally:
        for sock in held:
            sock.close()
    assert _wait(lambda: request_json("GET", handle.url + "/health")[0] == 200)


def test_an_idle_service_never_wakes_and_stops_at_once(monkeypatch):
    calls = []  # (thread, "enter" or "return")
    original = selectors.PollSelector.select

    def counted(self, timeout=None):
        calls.append((threading.current_thread(), "enter"))
        try:
            return original(self, timeout)
        finally:
            calls.append((threading.current_thread(), "return"))

    monkeypatch.setattr(selectors.PollSelector, "select", counted)
    handle = run_service(JsonHttpService(), 0)
    try:
        time.sleep(0.5)
        seen = [event for thread, event in list(calls) if thread is handle._thread]
        assert "enter" in seen  # the accept thread waits through the wrapped call
        assert seen.count("return") == 0
    finally:
        started = time.monotonic()
        handle.stop()
    assert time.monotonic() - started < 0.2
    assert not handle._thread.is_alive()


class _Threads(JsonHttpService):
    """GET /thread answers and records the thread that served it: the
    Thread itself, as the OS reuses the ident of a thread that ended."""

    def __init__(self):
        super().__init__()
        self.seen: list[threading.Thread] = []
        self.router.add("GET", "/thread", self._thread)

    def _thread(self, request):
        self.seen.append(threading.current_thread())
        return HttpResponse(200)


def test_connections_one_after_another_reuse_the_server_threads():
    threads = _Threads()
    handle = run_service(threads, 0)
    try:
        for _ in range(50):
            status, _ = request_json("GET", handle.url + "/thread", headers={"Connection": "close"})
            assert status == 200
            # paced as a client that asks now and then: a connection that
            # arrives while the last one's thread is still closing it gets another
            time.sleep(0.01)
        assert len(set(threads.seen)) <= 2
    finally:
        handle.stop()


def test_a_server_thread_idle_for_the_keep_alive_timeout_ends(monkeypatch):
    monkeypatch.setattr(httpkit, "KEEP_ALIVE_SECONDS", 0.2)
    threads = _Threads()
    handle = run_service(threads, 0)
    try:
        assert request_json("GET", handle.url + "/thread")[0] == 200  # kept alive, then closed idle
        (served,) = threads.seen
        assert _wait(lambda: not served.is_alive())
        assert handle._pool._threads == set()
        assert request_json("GET", handle.url + "/thread")[0] == 200  # a new thread starts
    finally:
        handle.stop()


def test_stop_leaves_no_server_thread_behind():
    threads = _Threads()
    handle = run_service(threads, 0)
    held = [socket.create_connection(("127.0.0.1", handle.port), timeout=5) for _ in range(3)]
    try:
        for sock in held:  # each kept-alive connection holds a server thread
            sock.sendall(b"GET /thread HTTP/1.1\r\nHost: peer\r\n\r\n")
            with sock.makefile("rb") as reader:
                assert _read_reply(reader)[0] == 200
        assert len(set(threads.seen)) == 3
    finally:
        handle.stop()
        for sock in held:
            sock.close()
    assert [thread for thread in threads.seen if thread.is_alive()] == []


# --- Stack -------------------------------------------------------------------------


class _Recording(JsonHttpService):
    """Appends ("start" | "close", name) to a shared log; ``fail`` names
    the step that raises."""

    def __init__(self, log, name, fail=None):
        super().__init__()
        self.log, self.name, self.fail = log, name, fail

    def start(self):
        self.log.append(("start", self.name))
        if self.fail == "start":
            raise TransportError("peer down")

    def close(self):
        self.log.append(("close", self.name))
        if self.fail == "close":
            raise RuntimeError("close failed")


def _bindable(port):
    socket.create_server(("127.0.0.1", port)).close()
    return True


def test_a_stack_binds_then_starts_each_service_and_stops_them_in_reverse():
    log = []
    configured = httpkit.find_free_port()
    stack = Stack({"a": configured})
    assert stack.port("a") == configured
    first = stack.serve("a", _Recording(log, "a"))
    assert first.port == configured and log == [("start", "a")]
    port = stack.port("b")
    second = stack.serve("b", _Recording(log, "b"), port)
    assert second.port == port and stack.handles == {"a": first, "b": second}
    assert httpkit.get_json(second.url + "/health") == (200, {"status": "ok", "service": "b"})
    stack.stop()
    assert log == [("start", "a"), ("start", "b"), ("close", "b"), ("close", "a")]
    assert _bindable(configured) and _bindable(port)


def test_run_service_binds_without_starting():
    log = []
    handle = run_service(_Recording(log, "a"), 0)
    handle.stop()
    assert log == [("close", "a")]


def test_a_service_whose_start_raises_is_stopped_with_the_stack_and_frees_its_port():
    log = []
    stack = Stack()
    port = stack.port("a")
    with pytest.raises(TransportError):
        stack.serve("a", _Recording(log, "a", fail="start"), port)
    stack.stop()
    assert log == [("start", "a"), ("close", "a")]
    assert _bindable(port)


def test_stop_keeps_going_past_a_service_that_fails_to_stop(caplog):
    log = []
    stack = Stack()
    first = stack.serve("a", _Recording(log, "a"))
    stack.serve("b", _Recording(log, "b", fail="close"))
    stack.stop()
    assert log[-2:] == [("close", "b"), ("close", "a")]
    assert "stopping b failed" in caplog.text
    assert _bindable(first.port)


# --- deliver -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "outcomes, delivered, attempts",
    [
        ([200], True, 1),
        ([500, 200], True, 2),
        ([500, 500, 500], False, 3),
        ([400, 200], False, 1),
        ([REFUSED, 200], True, 2),
    ],
    ids=["2xx-first-try", "500-then-2xx", "three-500s", "400-is-final", "transport-error-retried"],
)
def test_deliver_retries_transport_errors_and_5xx_only(outcomes, delivered, attempts):
    remaining = list(outcomes)
    stamps = []

    def send():
        stamps.append(time.monotonic())
        outcome = remaining.pop(0)  # an attempt beyond the table fails the test
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, None

    assert deliver(send) is delivered
    assert len(stamps) == attempts
    for earlier, later in zip(stamps, stamps[1:]):
        assert later - earlier >= DELIVERY_RETRY_DELAY


# --- KeyedWorkers ------------------------------------------------------------------


def _wait(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_tasks_with_one_key_run_one_at_a_time_in_submit_order():
    workers = KeyedWorkers()
    lock = threading.Lock()
    seen: dict[int, list[int]] = {key: [] for key in range(50)}
    running: set[int] = set()
    overlaps = []

    def task(key, index):
        with lock:
            if key in running:
                overlaps.append(key)
            running.add(key)
        time.sleep(0)
        with lock:
            running.discard(key)
            seen[key].append(index)

    def producer(keys):
        for index in range(20):
            for key in keys:
                workers.submit(key, task, key, index)

    producers = [threading.Thread(target=producer, args=(range(k, 50, 5),)) for k in range(5)]
    try:
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join()
        assert _wait(lambda: sum(len(v) for v in seen.values()) == 50 * 20)
        assert overlaps == []
        assert all(indices == list(range(20)) for indices in seen.values())
    finally:
        workers.close()


def test_thread_count_is_bounded_whatever_the_key_count():
    before = threading.active_count()
    workers = KeyedWorkers()
    gate = threading.Event()
    done = []
    try:
        for key in range(300):
            workers.submit(key, lambda key=key: (gate.wait(5), done.append(key)))
        assert threading.active_count() - before <= WORKER_THREADS
        gate.set()
        assert _wait(lambda: len(done) == 300)
        assert threading.active_count() - before <= WORKER_THREADS
    finally:
        gate.set()
        workers.close()


def test_a_one_key_pool_holds_one_thread():
    before = threading.active_count()
    workers = KeyedWorkers()
    done = []
    try:
        for index in range(50):
            workers.submit("k", done.append, index)
            assert _wait(lambda: len(done) == index + 1)
            time.sleep(0.02)  # the worker is back to waiting before the next task
        assert done == list(range(50))
        assert threading.active_count() - before <= 1
    finally:
        workers.close()


def test_a_failing_task_does_not_stop_its_key():
    workers = KeyedWorkers()
    done = threading.Event()
    try:
        workers.submit("k", lambda: 1 / 0)
        workers.submit("k", done.set)
        assert done.wait(5)
    finally:
        workers.close()


def test_a_pool_whose_threads_all_ended_idle_still_runs_its_tasks(monkeypatch):
    monkeypatch.setattr(httpkit, "KEEP_ALIVE_SECONDS", 0.1)
    workers = KeyedWorkers(2)
    try:
        for _ in range(2):
            both = threading.Barrier(2, timeout=5)  # passes only with both threads running
            done = []
            for key in ("a", "b"):
                workers.submit(key, lambda key=key: (both.wait(), done.append(key)))
            assert _wait(lambda: len(done) == 2)
            assert _wait(lambda: workers._threads == set())  # ended, and no longer counted
    finally:
        workers.close()


def test_after_a_burst_a_pool_under_a_trickle_shrinks_to_one_thread(monkeypatch):
    monkeypatch.setattr(httpkit, "KEEP_ALIVE_SECONDS", 0.3)
    workers = KeyedWorkers(4)
    try:
        four = threading.Barrier(4, timeout=5)
        for key in range(4):
            workers.submit(key, four.wait)
        assert _wait(lambda: len(workers._idle) == 4)
        done = []
        for index in range(20):  # each idle thread would get a task every 0.2 s in turn
            workers.submit(index, done.append, index)
            time.sleep(0.05)
        assert _wait(lambda: sorted(done) == list(range(20)))
        assert len(workers._threads) == 1  # the latest idle thread takes each task
    finally:
        workers.close()


def test_no_task_is_lost_or_reordered_while_threads_end_idle(monkeypatch):
    monkeypatch.setattr(httpkit, "KEEP_ALIVE_SECONDS", 0.001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    workers = KeyedWorkers(4)
    seen: dict[int, list[int]] = {key: [] for key in range(8)}
    try:
        for index in range(200):
            for key in seen:
                workers.submit(key, seen[key].append, index)
            if index % 10 == 0:
                time.sleep(0.003)  # the threads end idle between bursts
        assert _wait(lambda: all(len(indices) == 200 for indices in seen.values()))
        assert all(indices == list(range(200)) for indices in seen.values())
    finally:
        sys.setswitchinterval(interval)
        workers.close()


def test_close_returns_promptly_with_a_backlog_queued():
    workers = KeyedWorkers()
    ran = []
    for key in range(100):
        for index in range(10):
            workers.submit(key, lambda key=key: (time.sleep(0.02), ran.append(key)))
    started = time.monotonic()
    workers.close()
    assert time.monotonic() - started < 1.0
    count = len(ran)
    assert count < 1000
    workers.submit("after-close", ran.append, "late")
    time.sleep(0.1)
    assert len(ran) == count


# --- one worker model ----------------------------------------------------------------

# (module, enclosing function, constructor): the pool's threads, which also
# serve the HTTP server's connections, and the server's accept thread
ALLOWED_CONSTRUCTIONS = {
    ("httpkit.py", "submit", "Thread"),
    ("httpkit.py", "__init__", "Thread"),
}


class _Constructions(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope = "<module>"
        self.found: set[tuple[str, str, str]] = set()

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in {"Thread", "Timer", "Queue"}:
            self.found.add((self.module, self.scope, name))
        self.generic_visit(node)


def test_background_work_runs_only_on_the_worker_model():
    found = set()
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        visitor = _Constructions(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    assert ("httpkit.py", "submit", "Thread") in found  # the scan sees constructions
    assert found - ALLOWED_CONSTRUCTIONS == set()


def test_the_stack_has_one_http_client():
    clients = set()
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module or ""} | {f"{node.module}.{a.name}" for a in node.names}
            else:
                imported = set()
            assert imported & {"urllib.request", "urllib.error"} == set(), path.name
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if named in {"HTTPConnection", "HTTPSConnection"}:
                clients.add(path.name)
    assert clients == {"httpkit.py"}


def test_the_stack_frames_http_itself_on_the_server_side():
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module or ""} | {f"{node.module}.{a.name}" for a in node.names}
            else:
                continue
            assert imported & {"http.server", "socketserver"} == set(), path.name


def test_the_agent_and_the_gateway_speak_ngsi_only_through_the_broker_client():
    package = Path(giots.__file__).parent
    for module in ("agent.py", "smg.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert used & {"request_json", "deliver"} == set(), module
    # feedback: one APPEND per rule pass, sent from feed_back, not once per value
    tree = ast.parse((package / "agent.py").read_text(encoding="utf-8"))
    appends = [(function.name, node.func.value.attr) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append" and isinstance(node.func.value, ast.Attribute)
               and node.func.value.attr == "broker"]
    assert appends == [("feed_back", "broker")]
    # the pull gateway keeps its context in a ContextBroker: no merge, no
    # entity matching and no subtype test of its own (its one .matches call
    # is a process's ASK on a descriptor, which takes one argument)
    tree = ast.parse((package / "smg.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    methods = [(c.func.attr, len(c.args)) for c in calls if isinstance(c.func, ast.Attribute)]
    assert [m for m in methods if m[0] == "merged"] == []
    assert {m for m in methods if m[0] == "matches"} == {("matches", 1)}
    (store,) = [c for c in calls if getattr(c.func, "id", None) == "ContextBroker"]
    inside = {id(node) for node in ast.walk(store)}
    named = {getattr(node, key, None) for node in ast.walk(tree) if id(node) not in inside
             for key in ("attr", "id", "name")}
    assert {"query_reply", "is_subclass"} & named == set()
    # one parser reads NGSI request bodies; the agent's config reads its own
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
            for function in ast.iter_child_nodes(owner):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    called = getattr(node, "func", None)
                    if getattr(called, "id", getattr(called, "attr", None)) in {
                        "parse_patterns", "parse_attribute_names"
                    }:
                        callers.add(f"{path.stem}.{prefix}{function.name}")
    assert callers == {"broker.parse_request", "agent.AgentConfig.from_json"}


def test_one_place_binds_a_service_and_one_starts_its_work():
    """Stack.serve alone binds a service (run_service) and calls its start();
    Stack.port alone picks a free port; the gateway and the agent are started
    only by their services' start()."""
    callers = {"run_service": set(), "find_free_port": set(), "start": set()}
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in ast.walk(tree):
            prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
            for function in ast.iter_child_nodes(owner):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    called = getattr(node, "func", None)
                    name = getattr(called, "id", getattr(called, "attr", None))
                    if name in callers:
                        callers[name].add(f"{path.stem}.{prefix}{function.name}")
    assert callers == {
        "run_service": {"httpkit.Stack.serve"},
        "find_free_port": {"httpkit.Stack.port"},
        "start": {"httpkit.Stack.serve", "smg.SmgService.start", "agent.AgentService.start",
                  # threads: the server's accept thread and the worker pool's
                  "httpkit.ServerHandle.__init__", "httpkit.KeyedWorkers.submit"},
    }
