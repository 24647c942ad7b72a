"""One reader for the members of the JSON documents giots takes in: gateway
and agent configs, transformation processes, scenarios, rule documents and
NGSI and oneM2M request bodies.

``read(obj, key, kind, where)`` returns one member of an object if it is
of the given ``Kind``; ``check`` does the same for a member already taken
out. A null member counts as absent. A bool is never a number. The one
error is ``FieldError`` (a ValueError), worded ``<where> needs a '<key>'``
or ``<where>: '<key>' must be <what>``; at the top of a config file, which
its reader names, ``where`` is empty and the wording is ``missing
'<key>'`` or ``'<key>' must be <what>``. Services answer a FieldError with
a 400 (``JsonHttpService.handle``).
"""

from __future__ import annotations

import math
import threading
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable

_REQUIRED: Any = object()  # read's default for a member that must be present


class FieldError(ValueError):
    """A member of a JSON document is missing or of the wrong kind."""


def valid_url(url: Any) -> bool:
    if not isinstance(url, str):
        return False
    try:
        parts = urllib.parse.urlsplit(url)  # ValueError for a bad IPv6 host
        parts.port  # ValueError unless a number from 0 to 65535
    except ValueError:
        return False
    return parts.scheme in {"http", "https"} and bool(parts.hostname)


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def valid_port(port: Any) -> bool:
    return _integer(port) and 0 <= port <= 65535


def valid_millis(value: Any) -> bool:
    """A duration in milliseconds that ``Event.wait`` accepts: a non-bool
    integer from 0 to ``threading.TIMEOUT_MAX`` seconds. A longer wait
    raises OverflowError there and in ``time.sleep``."""
    return _integer(value) and 0 <= value <= threading.TIMEOUT_MAX * 1000


def _finite(value: Any) -> bool:
    """A JSON number, not a bool, that is finite as a float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class Kind:
    admits: Callable[[Any], bool]
    what: str  # ends "must be ..."

    def of(self, item: Kind, what: str) -> Kind:
        """This kind of list (or object) with every item (or value) of ``item``'s kind."""
        return Kind(lambda v: self.admits(v) and all(
            map(item.admits, v.values() if isinstance(v, dict) else v)), what)


ANY = Kind(lambda v: True, "a JSON value")
TEXT = Kind(lambda v: isinstance(v, str) and v != "", "a non-empty string")
STRING = Kind(lambda v: isinstance(v, str), "a string")
BOOL = Kind(lambda v: isinstance(v, bool), "a boolean")
INT = Kind(_integer, "an integer")
NUMBER = Kind(_finite, "a finite number")
SCALAR = Kind(lambda v: isinstance(v, (str, int, float)), "a JSON scalar")  # a bool is an int
LIST = Kind(lambda v: isinstance(v, list), "a list")
ITEMS = Kind(lambda v: isinstance(v, list) and v != [], "a non-empty list")
OBJECT = Kind(lambda v: isinstance(v, dict), "a JSON object")
URL = Kind(valid_url, "an absolute http(s) URL")
MILLIS = Kind(valid_millis, f"an integer from 0 to {threading.TIMEOUT_MAX * 1000:.0f}")
PORT = Kind(valid_port, "a port from 0 to 65535")


def document(value: Any, where: str) -> dict:
    """``value`` if it is a JSON object, the one thing ``read`` reads from."""
    if not isinstance(value, dict):
        raise FieldError(f"{where} must be a JSON object")
    return value


def read(obj: dict, key: str, kind: Kind, where: str = "", default: Any = _REQUIRED) -> Any:
    """The member ``key`` of ``obj``, checked by ``check``. A dotted key
    reads into nested objects: "request.root"."""
    if "." in key:
        value: Any = obj
        for name in key.split("."):
            value = value.get(name) if isinstance(value, dict) else None
    else:
        value = obj.get(key)
    return value if value is not None and kind.admits(value) else check(value, key, kind, where, default)


def check(value: Any, key: str, kind: Kind, where: str = "", default: Any = _REQUIRED) -> Any:
    """``value``, the member ``key``, if it is of ``kind``, else a FieldError;
    ``default`` if it is null, or a FieldError if there is no default."""
    if value is None:
        if default is _REQUIRED:
            article = "an" if key[0] in "aeiou" else "a"
            raise FieldError(f"{where} needs {article} '{key}'" if where else f"missing '{key}'")
        return default
    if not kind.admits(value):
        raise FieldError(f"{where + ': ' if where else ''}'{key}' must be {kind.what}")
    return value
