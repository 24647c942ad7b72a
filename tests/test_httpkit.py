"""httpkit's client and push side: kept-alive connections, the one retry
policy (deliver) and the keyed worker pool every service runs its
deliveries on."""

import ast
import http.client
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
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
    TransportError,
    deliver,
    request_json,
    run_service,
)

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


def test_a_hung_peer_fails_within_the_timeout_on_a_pooled_connection(service, connects):
    _, handle = service
    assert request_json("GET", handle.url + "/health")[0] == 200
    started = time.monotonic()
    with pytest.raises(TransportError):
        request_json("GET", handle.url + "/slow", timeout=0.3)
    assert time.monotonic() - started < 1.0
    assert connects[0] == 1  # the hung request went out on the pooled connection


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


def test_cancel_drops_queued_tasks_and_later_submits():
    workers = KeyedWorkers()
    started, gate = threading.Event(), threading.Event()
    ran = []
    try:
        workers.submit("a", lambda: (started.set(), gate.wait(5)))
        assert started.wait(5)
        for index in range(5):
            workers.submit("a", ran.append, index)
        workers.cancel("a")
        workers.submit("a", ran.append, "late")
        gate.set()
        other = threading.Event()
        workers.submit("b", other.set)
        assert other.wait(5)
        time.sleep(0.1)
        assert ran == []
        assert workers._cancelled == set()  # forgotten once its last task ended
    finally:
        gate.set()
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

# (module, enclosing function, constructor): the pool's and the HTTP server's
# threads
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


def test_the_agent_and_the_gateway_speak_ngsi_only_through_the_broker_client():
    package = Path(giots.__file__).parent
    for module in ("agent.py", "smg.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert used & {"request_json", "deliver"} == set(), module
