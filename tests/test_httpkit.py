"""The push side of httpkit: the one retry policy (deliver) and the keyed
worker pool every service runs its deliveries on."""

import ast
import threading
import time
from pathlib import Path

import pytest

import giots
from giots.httpkit import (
    DELIVERY_RETRY_DELAY,
    WORKER_THREADS,
    KeyedWorkers,
    TransportError,
    deliver,
)

REFUSED = TransportError("connection refused")


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


def test_the_agent_and_the_gateway_speak_ngsi_only_through_the_broker_client():
    package = Path(giots.__file__).parent
    for module in ("agent.py", "smg.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert used & {"request_json", "deliver"} == set(), module
