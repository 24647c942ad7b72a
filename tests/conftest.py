"""Shared fixtures: one-call service boots and a recording HTTP endpoint.

The capture server is plain ``http.server`` on purpose: outbound requests
from the code under test should be observed by something that shares no
plumbing with it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from giots.broker import BrokerService
from giots.cse import CseService
from giots.httpkit import run_service
from giots.knowledge import KnowledgeService
from giots.validator import ValidatorService

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"
SCENARIOS_DIR = REPO_ROOT / "scenarios"

# http URLs that do not parse: two ports that are not port numbers, and a bad IPv6 host
UNPARSABLE_URLS = ["http://127.0.0.1:abc/notify", "http://127.0.0.1:99999/notify", "http://[::1/notify"]


class CaptureServer:
    """Records every request it receives, in arrival order.

    ``fail_next(n)`` makes the next n requests answer 500 without being
    recorded as deliveries, which is how retry behaviour gets observed.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self.records: list[dict] = []
        self._fail_budget = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer._handle(self)

            def do_GET(self):
                outer._handle(self)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        length = int(handler.headers.get("Content-Length") or 0)
        raw = handler.rfile.read(length)
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = raw.decode("utf-8", "replace")
        with self._cond:
            if self._fail_budget > 0:
                self._fail_budget -= 1
                status = 500
            else:
                status = 200
            self.records.append(
                {
                    "path": handler.path,
                    "payload": payload,
                    "headers": {k: v for k, v in handler.headers.items()},
                    "status": status,
                }
            )
            self._cond.notify_all()
        body = json.dumps({"status": "ok" if status == 200 else "injected failure"}).encode()
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def fail_next(self, count: int) -> None:
        with self._cond:
            self._fail_budget = count

    def delivered(self) -> list:
        with self._cond:
            return [r["payload"] for r in self.records if r["status"] == 200]

    def attempts(self) -> int:
        with self._cond:
            return len(self.records)

    def wait_for(self, count: int, timeout: float = 5.0) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: sum(1 for r in self.records if r["status"] == 200) >= count,
                timeout,
            )

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2)


@pytest.fixture
def capture_server():
    server = CaptureServer()
    yield server
    server.close()


def boot(service):
    return run_service(service, 0)  # returns with the socket listening


def _service_fixture(factory):
    handle = boot(factory())
    ns = SimpleNamespace(service=handle.service, url=handle.url, handle=handle)
    return ns


@pytest.fixture
def knowledge_server():
    ns = _service_fixture(KnowledgeService)
    yield ns
    ns.handle.stop()


@pytest.fixture
def cse_server():
    ns = _service_fixture(CseService)
    yield ns
    ns.handle.stop()


@pytest.fixture
def broker_server():
    ns = _service_fixture(BrokerService)
    yield ns
    ns.handle.stop()


@pytest.fixture
def validator_server():
    ns = _service_fixture(ValidatorService)
    yield ns
    ns.handle.stop()


# --- acceptance summary: one line per criterion in the terminal report ---------

_ACCEPTANCE: dict[str, list[str]] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.module.__name__ == "test_acceptance":
            doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
            _ACCEPTANCE[item.nodeid] = [doc, "NOT RUN"]


def pytest_runtest_logreport(report):
    entry = _ACCEPTANCE.get(report.nodeid)
    if entry is None:
        return
    if report.when == "call":
        entry[1] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        entry[1] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for label, outcome in _ACCEPTANCE.values():
        terminalreporter.write_line(f"{outcome}: {label}")
