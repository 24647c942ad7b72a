"""Small HTTP plumbing shared by every service: a threaded JSON-over-HTTP
server with pattern routing, the stack's one HTTP client (``request_json``,
which keeps a few idle connections per peer alive), and the push side
every service shares: one retry policy (``deliver``) and one worker model
(``KeyedWorkers``).

Nothing here knows about the domain; each service registers routes and
raises ApiError for protocol failures.
"""

from __future__ import annotations

import errno
import http.client
import json
import logging
import re
import select
import socket
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Hashable

log = logging.getLogger(__name__)

KEEP_ALIVE_SECONDS = 5  # a server closes a connection idle this long, and says so
IDLE_PER_PEER = 4  # idle client connections kept per peer; each holds a server thread


class ApiError(Exception):
    """Maps to an HTTP error response {"error": code, "message": ...}."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


def bad_request(message: str) -> ApiError:
    return ApiError(400, "BadRequest", message)


def not_found(message: str) -> ApiError:
    return ApiError(404, "NotFound", message)


def conflict(message: str) -> ApiError:
    return ApiError(409, "Conflict", message)


def method_not_allowed(message: str) -> ApiError:
    return ApiError(405, "MethodNotAllowed", message)


class PortInUse(OSError):
    def __init__(self, port: int):
        super().__init__(f"port {port} is already in use")
        self.port = port


class TransportError(ConnectionError):
    """The peer could not be reached (connection, DNS or timeout failure)."""


@dataclass
class HttpRequest:
    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    params: dict[str, str] = field(default_factory=dict)

    def query_first(self, name: str) -> str | None:
        values = self.query.get(name)
        return values[0] if values else None

    def text(self) -> str:
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise bad_request(f"body is not valid UTF-8: {exc}") from exc

    def json(self) -> Any:
        text = self.text()
        if not text.strip():
            raise bad_request("expected a JSON body")
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise bad_request(f"malformed JSON body: {exc}") from exc

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())


@dataclass
class HttpResponse:
    status: int = 200
    payload: Any = None  # JSON-serializable, or None for empty body
    content_type: str = "application/json"
    raw: bytes | None = None  # overrides payload when set


Handler = Callable[[HttpRequest], HttpResponse]


class Router:
    """Routes (method, path pattern) pairs; `{name}` matches one segment,
    `{name:path}` greedily matches the rest (including slashes)."""

    def __init__(self):
        self._routes: list[tuple[str, re.Pattern, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        regex = "^"
        for part in re.split(r"(\{[^}]+\})", pattern):
            if part.startswith("{") and part.endswith("}"):
                name = part[1:-1]
                if name.endswith(":path"):
                    regex += f"(?P<{name[:-5]}>.+)"
                else:
                    regex += f"(?P<{name}>[^/]+)"
            else:
                regex += re.escape(part)
        regex += "$"
        self._routes.append((method.upper(), re.compile(regex), handler))

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        path_matched = False
        for method, regex, handler in self._routes:
            m = regex.match(request.path)
            if not m:
                continue
            path_matched = True
            if method != request.method:
                continue
            request.params = m.groupdict()
            return handler(request)
        if path_matched:
            raise method_not_allowed(f"{request.method} not supported on {request.path}")
        raise not_found(f"no such path: {request.path}")


class JsonHttpService:
    """Base for the artifact's services; subclasses register routes."""

    name = "service"

    def __init__(self):
        self.router = Router()
        self.router.add("GET", "/health", lambda req: HttpResponse(200, {"status": "ok", "service": self.name}))

    def handle(self, request: HttpRequest) -> HttpResponse:
        try:
            return self.router.dispatch(request)
        except ApiError as exc:
            return HttpResponse(exc.status, {"error": exc.code, "message": exc.message})
        except Exception:  # pragma: no cover - defensive
            log.exception("%s: unhandled error on %s %s", self.name, request.method, request.path)
            return HttpResponse(500, {"error": "InternalError", "message": "unhandled server error"})

    def close(self) -> None:
        """Release background resources; called when the server stops."""


def _make_handler(service: JsonHttpService):
    class RequestHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = KEEP_ALIVE_SECONDS  # an idle kept-alive connection is closed
        # headers and body go out in separate sends; with Nagle on, a
        # kept-alive request waits for the client's delayed ACK (~40 ms)
        disable_nagle_algorithm = True

        def _run(self, method: str) -> None:
            parsed = urllib.parse.urlsplit(self.path)
            length = (self.headers.get("Content-Length") or "0").strip()
            valid = length.isascii() and length.isdigit()  # 1*DIGIT, RFC 9110 8.6
            if self.headers.get("Transfer-Encoding") or not valid:
                # only Content-Length bodies are read; what is left unread
                # would be taken for the next request, so the connection ends
                self.close_connection = True
            if valid:
                response = service.handle(HttpRequest(
                    method=method,
                    path=urllib.parse.unquote(parsed.path),
                    query=urllib.parse.parse_qs(parsed.query),
                    headers={k.lower(): v for k, v in self.headers.items()},
                    body=self.rfile.read(int(length)),
                ))
            else:
                message = f"bad Content-Length {length!r}"
                response = HttpResponse(400, {"error": "BadRequest", "message": message})
            if response.raw is not None:
                data = response.raw
            elif response.payload is None:
                data = b""
            else:
                data = json.dumps(response.payload, sort_keys=True).encode("utf-8")
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            else:
                self.send_header("Keep-Alive", f"timeout={KEEP_ALIVE_SECONDS}")
            self.end_headers()
            if data:
                self.wfile.write(data)

        def do_GET(self):
            self._run("GET")

        def do_POST(self):
            self._run("POST")

        def do_PUT(self):
            self._run("PUT")

        def do_DELETE(self):
            self._run("DELETE")

        def log_message(self, fmt, *args):  # route access logs away from stderr
            log.debug("%s %s", service.name, fmt % args)

    return RequestHandler


class _Server(ThreadingHTTPServer):
    """One thread per connection; it tracks the open ones, because a
    kept-alive connection outlives shutdown() unless it is ended."""

    daemon_threads = True

    def __init__(self, address, handler):
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        with self._open_lock:
            connections = list(self._open)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request, client_address):
        # a peer that went away, or a connection ended by end_connections()
        log.debug("connection from %s ended with an error", client_address, exc_info=True)


class ServerHandle:
    """A running service bound to a port; stop() is idempotent."""

    def __init__(self, service: JsonHttpService, host: str, port: int):
        self.service = service
        try:
            self._server = _Server((host, port), _make_handler(service))
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise PortInUse(port) from exc
            raise
        self.host = host
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        self._stopped = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._server.shutdown()
        self._server.server_close()
        self._server.end_connections()
        self._thread.join(timeout=5)
        self.service.close()


def run_service(service: JsonHttpService, port: int, host: str = "127.0.0.1") -> ServerHandle:
    return ServerHandle(service, host, port)


# --- client ------------------------------------------------------------------


def request_json(
    method: str,
    url: str,
    body: Any = None,
    headers: dict[str, str] | None = None,
    timeout: float = 10.0,
) -> tuple[int, Any]:
    """Issue a request; JSON bodies in, parsed JSON (or text) out.

    4xx/5xx responses are returned, not raised; network-level failures
    raise TransportError. A string body is sent as text/plain. The
    connection is kept for the next request to the same peer only if the
    peer announced ``Keep-Alive: timeout=N``; a request is never resent.
    """
    data = None
    req_headers = dict(headers or {})
    if body is not None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            req_headers.setdefault("Content-Type", "text/plain; charset=utf-8")
        elif isinstance(body, bytes):
            data = body
            req_headers.setdefault("Content-Type", "application/octet-stream")
        else:
            data = json.dumps(body).encode("utf-8")
            req_headers.setdefault("Content-Type", "application/json")
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in {"http", "https"} or not parts.hostname:
        raise TransportError(f"{method} {url}: not an http(s) URL")
    peer = (parts.scheme, parts.hostname, parts.port)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    conn = _checkout(peer, timeout)
    try:
        if conn is None:
            https = parts.scheme == "https"
            connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = connection(parts.hostname, parts.port, timeout=timeout)
        conn.request(method.upper(), target, body=data, headers=req_headers)
        response = conn.getresponse()
        payload = response.read()
    except (OSError, http.client.HTTPException) as exc:
        if conn is not None:
            conn.close()
        raise TransportError(f"{method} {url}: {exc}") from exc
    _checkin(peer, conn, response)
    return response.status, _parse_body(payload)


# Idle connections per (scheme, host, port), newest last, each with the
# time after which it is not reused.
_idle: dict[tuple, list[tuple[http.client.HTTPConnection, float]]] = {}
_idle_lock = threading.Lock()


def _checkout(peer: tuple, timeout: float) -> http.client.HTTPConnection | None:
    """The newest idle connection to the peer that is still fresh and has
    nothing waiting on it (EOF or stray bytes mean the server is done)."""
    now = time.monotonic()
    while True:
        with _idle_lock:
            idle = _idle.get(peer)
            if not idle:
                return None
            conn, reuse_until = idle.pop()
        if now < reuse_until and _quiet(conn.sock):
            conn.timeout = timeout
            conn.sock.settimeout(timeout)
            return conn
        conn.close()


def _quiet(sock: socket.socket) -> bool:
    """Nothing waits to be read, without blocking; poll, unlike select,
    takes any file descriptor number."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return not poller.poll(0)


def _checkin(peer: tuple, conn: http.client.HTTPConnection, response) -> None:
    """Keep the connection for half the idle timeout its server announced,
    so the server never closes it under a request; close it otherwise,
    and close every idle connection that has gone stale."""
    announced = re.search(r"timeout=(\d+)", response.getheader("Keep-Alive") or "")
    now = time.monotonic()
    stale = []
    with _idle_lock:
        if announced and not response.will_close and len(_idle.get(peer, ())) < IDLE_PER_PEER:
            _idle.setdefault(peer, []).append((conn, now + int(announced.group(1)) / 2))
            conn = None
        for key in list(_idle):
            idle = _idle[key]
            while idle and idle[0][1] <= now:
                stale.append(idle.pop(0)[0])
            if not idle:
                del _idle[key]
    for old in stale:
        old.close()
    if conn is not None:
        conn.close()


def _parse_body(data: bytes) -> Any:
    if not data:
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return data.decode("utf-8", errors="replace")


def get_json(url: str, timeout: float = 10.0) -> tuple[int, Any]:
    return request_json("GET", url, timeout=timeout)


def post_json(url: str, body: Any, timeout: float = 10.0) -> tuple[int, Any]:
    return request_json("POST", url, body=body, timeout=timeout)


def wait_healthy(base_url: str, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            status, _ = get_json(base_url + "/health", timeout=1.0)
            if status == 200:
                return
        except TransportError:
            pass
        if time.monotonic() > deadline:
            raise TransportError(f"service at {base_url} did not become healthy within {timeout}s")
        time.sleep(0.05)


def valid_url(url: Any) -> bool:
    if not isinstance(url, str):
        return False
    parsed = urllib.parse.urlparse(url)
    return parsed.scheme in {"http", "https"} and bool(parsed.netloc)


def find_free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


# --- delivery ------------------------------------------------------------------

DELIVERY_ATTEMPTS = 3
DELIVERY_RETRY_DELAY = 0.1
WORKER_THREADS = 8  # per pool; 8 hung peers stall it for attempts x timeout


def deliver(send: Callable[[], tuple[int, Any]]) -> bool:
    """The stack's one retry policy: ``send`` makes one attempt and returns
    (status, payload). A transport error or 5xx is retried; a 2xx returns
    True, any other status False at once. The caller logs the drop."""
    for attempt in range(1, DELIVERY_ATTEMPTS + 1):
        try:
            status, _ = send()
            if status < 500:
                return 200 <= status < 300
        except TransportError:
            pass
        if attempt < DELIVERY_ATTEMPTS:
            time.sleep(DELIVERY_RETRY_DELAY)
    return False


class KeyedWorkers:
    """At most WORKER_THREADS threads run the submitted tasks; tasks with
    the same key run one at a time, in submit order, and distinct keys
    take turns. A thread starts only when ready keys outnumber idle
    threads, so a one-key pool holds one; threads live until close()."""

    def __init__(self):
        self._cond = threading.Condition()
        self._pending: dict[Hashable, deque] = {}  # queued or running keys
        self._ready: deque = deque()  # keys with a task and none running
        self._cancelled: set = set()  # running keys whose later tasks are dropped
        self._threads: list[threading.Thread] = []
        self._idle = 0  # threads waiting for a ready key
        self._closed = False

    def submit(self, key: Hashable, fn: Callable, *args: Any) -> None:
        with self._cond:
            if self._closed or key in self._cancelled:
                return
            if key not in self._pending:
                self._pending[key] = deque()
                self._ready.append(key)
                self._cond.notify()
                if len(self._ready) > self._idle and len(self._threads) < WORKER_THREADS:
                    self._threads.append(threading.Thread(target=self._run, daemon=True))
                    self._threads[-1].start()
            self._pending[key].append((fn, args))

    def _run(self) -> None:
        while True:
            with self._cond:
                self._idle += 1
                while not self._ready and not self._closed:
                    self._cond.wait()
                self._idle -= 1
                if self._closed:
                    return
                key = self._ready.popleft()
                fn, args = self._pending[key].popleft()
            try:
                fn(*args)
            except Exception:
                log.exception("task for %r failed", key)
            with self._cond:
                if self._pending[key]:
                    self._ready.append(key)
                    self._cond.notify()
                else:
                    del self._pending[key]
                    self._cancelled.discard(key)

    def cancel(self, key: Hashable) -> None:
        """Drop the key's queued tasks. While one of its tasks is still
        running, later submits for the key are dropped too; once it ends,
        the key is forgotten, so cancelled keys do not pile up."""
        with self._cond:
            if key in self._ready:  # queued, not running: forget it
                self._ready.remove(key)
                del self._pending[key]
            elif key in self._pending:  # running: drop what waits behind
                self._pending[key].clear()
                self._cancelled.add(key)

    def close(self) -> None:
        """Drop every queued task; wait at most 2 s in all for running ones."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            threads = list(self._threads)
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
