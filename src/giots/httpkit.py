"""Small HTTP plumbing shared by every service: a JSON-over-HTTP server
with pattern routing and the stack's one HTTP client (``request_json``,
which keeps a few idle connections per peer alive, and ``call`` on it,
which refuses a reply that is not 2xx), both of which frame
HTTP/1.1 themselves, one send per message; and the push side every service
shares: one retry policy (``deliver``) and one worker model (``KeyedWorkers``),
which also serves the server's connections; and the one boot path, ``Stack``,
which binds each service, then calls its ``start()``, and stops all in reverse.

Nothing here knows about the domain; each service registers routes and
raises ApiError for protocol failures.
"""

from __future__ import annotations

import email.utils
import errno
import http
import http.client
import json
import logging
import math
import re
import select
import selectors
import socket
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from .jsonfields import FieldError, valid_url

log = logging.getLogger(__name__)

KEEP_ALIVE_SECONDS = 5  # a server closes a connection idle this long, and says so
IDLE_PER_PEER = 4  # idle connections kept per peer; each holds a server thread and counts toward its cap
MAX_CONNECTIONS = 64  # open connections per service; one more is answered 503
MAX_HEADERS = 100  # header lines in a request or reply
MAX_LINE = 65536  # bytes in a request, status or header line
MAX_BODY = 16 * 1024 * 1024  # bytes in a request body; a longer one is answered 413


class ApiError(Exception):
    """Maps to an HTTP error response {"error": code, "message": ...}."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message

    def response(self) -> HttpResponse:
        return HttpResponse(self.status, {"error": self.code, "message": self.message})


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


def _finite(text: str) -> float:
    """A JSON number as a float. NaN, Infinity and a literal too large for a
    float are refused: a reply holding one would not be JSON (RFC 8259)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


_JSON_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


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
            return _JSON_DECODER.decode(text)
        except ValueError as exc:  # JSONDecodeError, _finite, or an int over the digit limit
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
            return exc.response()
        except FieldError as exc:  # a request body's member is missing or mistyped
            return bad_request(str(exc)).response()
        except Exception:  # pragma: no cover - defensive
            log.exception("%s: unhandled error on %s %s", self.name, request.method, request.path)
            return HttpResponse(500, {"error": "InternalError", "message": "unhandled server error"})

    def start(self) -> None:
        """Begin background work; called once the service's port is bound."""

    def close(self) -> None:
        """Release background resources; called when the server stops."""


class ServerHandle:
    """A running service bound to a port; stop() is idempotent. One thread
    waits, with no timeout, for a connection or for stop()'s wake-up byte,
    and hands each connection to the service's pool, keyed by connection,
    whose thread serves its requests in order and then serves the next
    connection; beyond MAX_CONNECTIONS open connections it answers 503
    itself."""

    def __init__(self, service: JsonHttpService, host: str, port: int):
        self.service = service
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise PortInUse(port) from exc
            raise
        self._listener.setblocking(False)  # a peer gone before accept() does not block it
        self.host = host
        self.port = self._listener.getsockname()[1]
        self._wake, self._waker = socket.socketpair()
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._date = (0, "")  # (second, Date header value)
        self._pool = KeyedWorkers(MAX_CONNECTIONS)  # so no open connection waits for a thread
        self._stopped = False
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._waker.send(b"x")
        self._thread.join(timeout=5)
        for sock in (self._listener, self._wake, self._waker):
            sock.close()
        with self._open_lock:
            connections = list(self._open)
        for sock in connections:  # a kept-alive connection would outlive the service
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._pool.close()
        self.service.close()

    def _accept(self) -> None:
        with selectors.PollSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while True:
                selector.select()
                if self._stopped:
                    return
                try:
                    conn, _ = self._listener.accept()
                except OSError:  # the peer gave up before the accept
                    continue
                with self._open_lock:
                    full = len(self._open) >= MAX_CONNECTIONS
                    if not full:
                        self._open.add(conn)
                if full:
                    self._refuse(conn)
                else:
                    self._pool.submit(conn, self._serve, conn)

    def _refuse(self, conn: socket.socket) -> None:
        refusal = ApiError(503, "ServiceUnavailable", f"{MAX_CONNECTIONS} open connections")
        try:
            conn.sendall(self._reply(refusal.response(), True))
            conn.shutdown(socket.SHUT_WR)
            conn.recv(MAX_LINE, socket.MSG_DONTWAIT)  # closing on unread bytes resets the reply away
        except OSError:
            pass
        finally:
            conn.close()

    def _serve(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(KEEP_ALIVE_SECONDS)  # an idle kept-alive connection is closed
            while self._answer(conn, reader):
                pass
        except Exception:
            # a peer that went away, or a connection ended by stop()
            log.debug("%s: a connection ended with an error", self.service.name, exc_info=True)
        finally:
            with self._open_lock:
                self._open.discard(conn)
            reader.close()
            conn.close()

    def _answer(self, conn: socket.socket, reader) -> bool:
        """Serves one request; False once the connection is to end."""
        line = reader.readline(MAX_LINE + 1)
        if not line:
            return False
        try:
            request, close = self._read_request(line, conn, reader)
        except ApiError as exc:
            # what is left unread would be taken for the next request
            conn.sendall(self._reply(exc.response(), True))
            return False
        conn.sendall(self._reply(self.service.handle(request), close))
        return not close

    def _read_request(self, line: bytes, conn: socket.socket, reader) -> tuple[HttpRequest, bool]:
        """The request that starts with ``line``, and whether the connection
        ends after its reply. Raises ApiError for a request it cannot frame."""
        if len(line) > MAX_LINE:
            raise ApiError(414, "URITooLong", f"request line over {MAX_LINE} bytes")
        match = _REQUEST_LINE.fullmatch(line)
        if match is None:
            raise bad_request(f"malformed request line {line[:80]!r}")
        method, target, minor = (part.decode("latin-1") for part in match.groups())
        headers = _read_headers(reader)
        if method not in {"GET", "POST", "PUT", "DELETE"}:
            raise ApiError(501, "NotImplemented", f"unsupported method {method}")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):  # 1*DIGIT, RFC 9110 8.6
            raise bad_request(f"bad Content-Length {length!r}")
        if int(length) > MAX_BODY:
            raise ApiError(413, "ContentTooLarge", f"a body over {MAX_BODY} bytes")
        # only Content-Length bodies are read, so a Transfer-Encoding ends the connection
        close = (minor == "0" or "transfer-encoding" in headers
                 or "close" in headers.get("connection", "").lower())
        if minor == "1" and headers.get("expect", "").lower() == "100-continue":
            conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = reader.read(int(length))
        if len(body) < int(length):
            raise ConnectionError("the peer closed the connection inside a body")
        parsed = urllib.parse.urlsplit(target)
        path, query = urllib.parse.unquote(parsed.path), urllib.parse.parse_qs(parsed.query)
        return HttpRequest(method, path, query, headers, body), close

    def _reply(self, response: HttpResponse, close: bool) -> bytes:
        """The whole reply, so it goes out in one send."""
        if response.raw is not None:
            data = response.raw
        elif response.payload is None:
            data = b""
        else:
            data = json.dumps(response.payload, sort_keys=True).encode("utf-8")
        second = int(time.time())
        if self._date[0] != second:  # RFC 9110 6.6.1: the Date of a second is one string
            self._date = (second, email.utils.formatdate(second, usegmt=True))
        head = (
            f"HTTP/1.1 {response.status} {_REASONS.get(response.status, '')}\r\n"
            f"Content-Type: {response.content_type}\r\nContent-Length: {len(data)}\r\n"
            f"Date: {self._date[1]}\r\n"
            + ("Connection: close" if close else f"Keep-Alive: timeout={KEEP_ALIVE_SECONDS}")
            + "\r\n\r\n"
        )
        return head.encode("latin-1") + data


_REQUEST_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+) (\S+) HTTP/1\.([01])\r?\n")
_REASONS = {status.value: status.phrase for status in http.HTTPStatus}


def _read_headers(reader) -> dict[str, str]:
    """Header lines up to the blank one, by lowercased name. Raises ApiError
    for a malformed line or one beyond the limits, ConnectionError at EOF."""
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionError("the peer closed the connection inside a header")
        if len(line) > MAX_LINE:
            raise ApiError(431, "RequestHeaderFieldsTooLarge", f"header line over {MAX_LINE} bytes")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():  # RFC 9112 5.1
            raise bad_request(f"malformed header line {line[:80]!r}")
        headers[name.decode("latin-1").lower()] = value.strip().decode("latin-1")
    raise ApiError(431, "RequestHeaderFieldsTooLarge", f"more than {MAX_HEADERS} header lines")


def run_service(service: JsonHttpService, port: int, host: str = "127.0.0.1") -> ServerHandle:
    return ServerHandle(service, host, port)


class Stack:
    """Services bound and started one by one, and stopped in reverse.
    ``ports`` maps a key to its port; a key it lacks, or maps to 0, gets a free one."""

    def __init__(self, ports: dict[str, int] | None = None):
        self.ports = dict(ports or {})
        self.handles: dict[str, ServerHandle] = {}

    def port(self, key: str) -> int:
        """The configured port, or a free one, for a service that must know its URL."""
        return self.ports.get(key) or find_free_port()

    def serve(self, key: str, service: JsonHttpService, port: int | None = None) -> ServerHandle:
        """Binds the service, then starts it; stop() stops it even if its
        start() raised. No /health probe: the socket already listens."""
        handle = run_service(service, self.ports.get(key, 0) if port is None else port)
        self.handles[key] = handle
        service.start()
        return handle

    def stop(self) -> None:
        for key in reversed(list(self.handles)):
            try:
                self.handles[key].stop()
            except Exception:  # keep stopping the rest
                log.exception("stopping %s failed", key)


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
    data = b""
    req_headers = dict(headers or {})
    if body is not None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            req_headers.setdefault("Content-Type", "text/plain; charset=utf-8")
        else:
            data = json.dumps(body).encode("utf-8")
            req_headers.setdefault("Content-Type", "application/json")
    if not valid_url(url):
        raise TransportError(f"{method} {url}: not an http(s) URL")
    parts = urllib.parse.urlsplit(url)
    peer = scheme, host, port = parts.scheme, parts.hostname, parts.port
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _UNSAFE_TARGET.search(target):
        raise TransportError(f"{method} {url}: a space or control character in the target")
    request = _frame(method.upper(), host, port, target, req_headers, data)
    link = _checkout(peer, timeout)
    try:
        if link is None:  # http.client opens the connection, TLS included
            https = scheme == "https"
            connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = connection(host, port, timeout=timeout)
            conn.connect()
            link = _Link(conn.sock)
        link.sock.sendall(request)
        status, payload, keep_alive = _read_reply(link.reader)
    except (OSError, ValueError, ApiError, http.client.HTTPException) as exc:
        if link is not None:
            link.close()
        raise TransportError(f"{method} {url}: {exc}") from exc
    _checkin(peer, link, keep_alive)
    return status, _parse_body(payload)


_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")
_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) (\d{3})(?: [^\r\n]*)?\r?\n")


def _frame(method: str, host: str, port: int | None, target: str, headers: dict, data: bytes) -> bytes:
    """The request line, Host, the headers, Content-Length and the body,
    for one send. Raises ValueError for a header with a line break."""
    host = f"[{host}]" if ":" in host else host
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}" + (f":{port}" if port else "")]
    for name, value in headers.items():
        line = f"{name}: {value}"
        if "\r" in line or "\n" in line:
            raise ValueError(f"a line break in header {name!r}")
        lines.append(line)
    if data or method in ("POST", "PUT"):
        lines.append(f"Content-Length: {len(data)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


class _Link:
    """A client connection: its socket and the buffered reader on it."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _read_reply(reader) -> tuple[int, bytes, str]:
    """Status, body, and the reply's Keep-Alive header if the connection
    can carry another request ("" if it cannot). Raises ValueError or
    ApiError for a reply it cannot frame, ConnectionError at EOF."""
    status = 100
    while status < 200:  # an interim 1xx reply comes before the final one
        line = reader.readline(MAX_LINE + 1)
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed status line {line[:80]!r}" if line else "closed before a reply")
        minor, status = match.group(1), int(match.group(2))
        headers = _read_headers(reader)
    if status in (204, 304):
        body = b""
    elif "chunked" in headers.get("transfer-encoding", "").lower():
        body = _read_chunked(reader)
    elif "content-length" in headers:
        length = headers["content-length"]
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"bad Content-Length {length!r}")
        body = reader.read(int(length))
        if len(body) < int(length):
            raise ValueError(f"reply cut short: {len(body)} of {length} bytes")
    else:
        return status, reader.read(), ""  # the body ends where the connection does
    reusable = minor == b"1" and "close" not in headers.get("connection", "").lower()
    return status, body, headers.get("keep-alive", "") if reusable else ""


def _read_chunked(reader) -> bytes:
    chunks = []
    while (size := int(reader.readline(MAX_LINE + 1).split(b";", 1)[0], 16)) != 0:
        chunk = reader.read(size + 2) if size > 0 else b""
        if len(chunk) != size + 2 or not chunk.endswith(b"\r\n"):
            raise ValueError(f"malformed chunk of {size} bytes")
        chunks.append(chunk[:-2])
    _read_headers(reader)  # the trailer
    return b"".join(chunks)


# Idle connections per (scheme, host, port), newest last, each with the
# time after which it is not reused.
_idle: dict[tuple, list[tuple[_Link, float]]] = {}
_idle_lock = threading.Lock()


def _checkout(peer: tuple, timeout: float) -> _Link | None:
    """The newest idle connection to the peer that is still fresh and has
    nothing waiting on it (EOF or stray bytes mean the server is done)."""
    now = time.monotonic()
    while True:
        with _idle_lock:
            idle = _idle.get(peer)
            if not idle:
                return None
            link, reuse_until = idle.pop()
        if now < reuse_until and _quiet(link.sock):
            link.sock.settimeout(timeout)
            return link
        link.close()


def _quiet(sock: socket.socket) -> bool:
    """Nothing waits to be read, without blocking; poll, unlike select,
    takes any file descriptor number."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return not poller.poll(0)


def _checkin(peer: tuple, link: _Link, keep_alive: str) -> None:
    """Keep the connection for half the idle timeout its server announced,
    so the server never closes it under a request; close it otherwise,
    and close every idle connection that has gone stale."""
    announced = re.search(r"timeout=(\d+)", keep_alive)
    now = time.monotonic()
    stale = []
    with _idle_lock:
        if announced and len(_idle.get(peer, ())) < IDLE_PER_PEER:
            _idle.setdefault(peer, []).append((link, now + int(announced.group(1)) / 2))
            link = None
        for key in list(_idle):
            idle = _idle[key]
            while idle and idle[0][1] <= now:
                stale.append(idle.pop(0)[0])
            if not idle:
                del _idle[key]
    for old in stale:
        old.close()
    if link is not None:
        link.close()


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


def call(
    method: str, url: str, body: Any = None, headers: dict[str, str] | None = None,
    timeout: float = 10.0,
) -> Any:
    """The payload of a 2xx reply, the success rule of deliver(); any
    other status raises ValueError, worded "<METHOD> <path> failed
    (<status>): <payload>". A network-level failure raises TransportError."""
    # by keyword, as bench/tracing.py's wrapper of request_json expects
    status, payload = request_json(method, url, body=body, headers=headers, timeout=timeout)
    if not 200 <= status < 300:
        raise ValueError(f"{method} {urllib.parse.urlsplit(url).path} failed ({status}): {payload}")
    return payload


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


def find_free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


# --- delivery ------------------------------------------------------------------

DELIVERY_ATTEMPTS = 3
DELIVERY_RETRY_DELAY = 0.1
WORKER_THREADS = 8  # a pool's default cap; 8 hung peers stall it for attempts x timeout


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
    """At most ``threads`` threads run the submitted tasks; tasks with
    the same key run one at a time, in submit order, and distinct keys
    take turns. A thread starts only when a key is ready and no thread
    is idle, so a one-key pool holds one. A ready key wakes the thread
    idle the shortest time, so the others can wait KEEP_ALIVE_SECONDS
    with no ready key, and then they end; close() ends the rest.
    A key is forgotten once its last task ends. A queued task cannot be
    withdrawn: one whose target may have gone checks for it as it runs."""

    def __init__(self, threads: int = WORKER_THREADS):
        self._lock = threading.Lock()
        self._pending: dict[Hashable, deque] = {}  # queued or running keys
        self._ready: deque = deque()  # keys with a task and none running
        self._threads: set[threading.Thread] = set()  # live threads only
        self._cap = threads
        self._idle: list[threading.Condition] = []  # one per waiting thread, the latest idle last
        self._closed = False

    def submit(self, key: Hashable, fn: Callable, *args: Any) -> None:
        with self._lock:
            if self._closed:
                return
            if key not in self._pending:
                self._pending[key] = deque()
                self._ready.append(key)
                if self._idle:
                    self._idle.pop().notify()
                elif len(self._threads) < self._cap:
                    thread = threading.Thread(target=self._run, daemon=True)
                    self._threads.add(thread)
                    thread.start()
            self._pending[key].append((fn, args))

    def _run(self) -> None:
        wake = threading.Condition(self._lock)
        while True:
            with self._lock:
                deadline = time.monotonic() + KEEP_ALIVE_SECONDS
                while not (self._ready or self._closed) and (left := deadline - time.monotonic()) > 0:
                    self._idle.append(wake)
                    wake.wait(left)
                    if wake in self._idle:  # not woken by submit
                        self._idle.remove(wake)
                if self._closed or not self._ready:
                    self._threads.discard(threading.current_thread())
                    return
                key = self._ready.popleft()
                fn, args = self._pending[key].popleft()
            try:
                fn(*args)
            except Exception:
                log.exception("task for %r failed", key)
            with self._lock:
                if self._pending[key]:
                    self._ready.append(key)
                else:
                    del self._pending[key]

    def close(self) -> None:
        """Drop every queued task; wait at most 2 s in all for running ones."""
        with self._lock:
            self._closed = True
            for wake in self._idle:
                wake.notify()
            threads = list(self._threads)
        deadline = time.monotonic() + 2.0
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
