"""Context model shared by the broker, the mediation gateway and the
agents: entities with named attributes, per-attribute metadata, entity
patterns and bounding-box restrictions.

Parsing functions raise ValueError; HTTP services translate those into
400 responses at the boundary.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from .jsonfields import ITEMS, LIST, NUMBER, OBJECT, SCALAR, STRING, TEXT, Kind, check, document, read

Scalar = str | int | float | bool

LOCATION_METADATA = "location"
_CORNERS = ("minLon", "minLat", "maxLon", "maxLat")
_LOCATION = Kind(lambda v: LIST.admits(v) and len(v) == 2 and all(map(NUMBER.admits, v)),
                 "a [lon, lat] pair of finite numbers")
_BOX = Kind(lambda v: OBJECT.admits(v) and all(NUMBER.admits(v.get(k)) for k in _CORNERS),
            "an object of finite numbers " + ", ".join(_CORNERS))
_ATTRIBUTE_NAMES = LIST.of(TEXT, "a list of non-empty strings")


@dataclass(frozen=True)
class ContextMetadata:
    name: str
    type: str
    value: Any  # scalar, or [lon, lat] for "location"

    @staticmethod
    def from_json(obj: Any, where: str) -> "ContextMetadata":
        where = f"{where}: metadata"
        name = read(document(obj, where), "name", TEXT, where)
        where = f"{where} '{name}'"
        mtype = read(obj, "type", STRING, where, "string")
        if name == LOCATION_METADATA:
            return ContextMetadata(name, mtype, [float(v) for v in read(obj, "value", _LOCATION, where)])
        return ContextMetadata(name, mtype, read(obj, "value", SCALAR, where))

    def to_json(self) -> dict:
        return {"name": self.name, "type": self.type, "value": self.value}


@dataclass(frozen=True)
class ContextAttribute:
    name: str
    value: Scalar
    metadata: tuple[ContextMetadata, ...] = ()

    def __post_init__(self):
        names = [m.name for m in self.metadata]
        if len(names) != len(set(names)):
            raise ValueError(f"attribute '{self.name}' has duplicate metadata names")

    @staticmethod
    def from_json(obj: Any, where: str) -> "ContextAttribute":
        where = f"{where}: attribute"
        name = read(document(obj, where), "name", TEXT, where)
        where = f"{where} '{name}'"
        value = read(obj, "value", SCALAR, where)
        raw_metadata = read(obj, "metadata", LIST, where, [])
        metadata = tuple(ContextMetadata.from_json(m, where) for m in raw_metadata)
        return ContextAttribute(name, value, metadata)

    def metadata_value(self, name: str) -> Any:
        for meta in self.metadata:
            if meta.name == name:
                return meta.value
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "metadata": [m.to_json() for m in sorted(self.metadata, key=lambda m: m.name)],
        }


@dataclass(frozen=True)
class ContextEntity:
    """Immutable, so its wire form and locations are each computed at most
    once, on first read: a write makes a new entity, and paths that only
    write never compute them."""

    id: str
    type: str
    attributes: tuple[ContextAttribute, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("entity id must be non-empty")
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError(f"entity '{self.id}' has duplicate attribute names")

    @staticmethod
    def from_json(obj: Any) -> "ContextEntity":
        entity_id = read(document(obj, "entity"), "id", TEXT, "entity")
        where = f"entity '{entity_id}'"
        raw_attributes = read(obj, "attributes", LIST, where, [])
        attributes = tuple(ContextAttribute.from_json(a, where) for a in raw_attributes)
        return ContextEntity(entity_id, read(obj, "type", STRING, where, ""), attributes)

    def attribute(self, name: str) -> ContextAttribute | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def merged(self, update: "ContextEntity") -> "ContextEntity":
        """NGSI APPEND: the update's attributes replace or extend these by
        name, kept in name order; the update's type wins unless empty."""
        merged = {a.name: a for a in self.attributes}
        merged.update((a.name, a) for a in update.attributes)
        return ContextEntity(
            self.id, update.type or self.type, tuple(merged[n] for n in sorted(merged))
        )

    def project(self, names: list[str] | None) -> "ContextEntity":
        """The entity with only the named attributes; itself if it keeps all."""
        if names is None:
            return self
        keep = tuple(a for a in self.attributes if a.name in names)
        return self if len(keep) == len(self.attributes) else ContextEntity(self.id, self.type, keep)

    @cached_property
    def locations(self) -> list[list[float]]:
        """The [lon, lat] of every attribute's location metadata."""
        found = (a.metadata_value(LOCATION_METADATA) for a in self.attributes)
        return [value for value in found if value is not None]

    @cached_property
    def wire(self) -> bytes:
        """``to_json()`` as canonical JSON: sorted keys, json.dumps' separators."""
        return json.dumps(self.to_json(), sort_keys=True).encode("utf-8")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "type": self.type,
            "attributes": [a.to_json() for a in sorted(self.attributes, key=lambda a: a.name)],
        }


# --- patterns and restrictions ------------------------------------------------


@dataclass(frozen=True)
class EntityPattern:
    """Matches entities by exact id, anchored id regex, and/or type."""

    entity_id: str | None = None
    id_pattern: str | None = None
    entity_type: str | None = None
    _regex: re.Pattern | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_json(obj: Any, allow_empty: bool = True) -> "EntityPattern":
        document(obj, "entity pattern")
        entity_id, id_pattern, entity_type = (
            read(obj, key, TEXT, "entity pattern", None) for key in ("id", "idPattern", "type"))
        if entity_id and id_pattern:
            raise ValueError("entity pattern cannot carry both 'id' and 'idPattern'")
        regex = None
        if id_pattern:
            try:
                regex = re.compile(id_pattern)
            except re.error as exc:
                raise ValueError(f"invalid idPattern '{id_pattern}': {exc}") from exc
        if not allow_empty and not (entity_id or id_pattern or entity_type):
            raise ValueError("entity pattern needs at least one of id, idPattern, type")
        return EntityPattern(entity_id, id_pattern, entity_type, regex)

    def matches(
        self,
        entity_id: str,
        entity_type: str,
        is_subclass: Callable[[str, str], bool],
    ) -> bool:
        if not self.admits_id(entity_id):
            return False
        return self.entity_type is None or is_subclass(entity_type, self.entity_type)

    def admits_id(self, entity_id: str) -> bool:
        """Does the id pass the pattern's id and idPattern constraints?"""
        if self.entity_id is not None and entity_id != self.entity_id:
            return False
        return self._regex is None or bool(self._regex.fullmatch(entity_id))

    def intersects(self, other: "EntityPattern", is_subclass: Callable[[str, str], bool]) -> bool:
        """Could any entity satisfy both patterns? Over-approximates for
        regex-vs-regex id constraints (treated as compatible)."""
        if self.entity_id is not None and other.entity_id is not None:
            if self.entity_id != other.entity_id:
                return False
        elif self.entity_id is not None and other._regex is not None:
            if not other._regex.fullmatch(self.entity_id):
                return False
        elif other.entity_id is not None and self._regex is not None:
            if not self._regex.fullmatch(other.entity_id):
                return False
        if self.entity_type is not None and other.entity_type is not None:
            related = is_subclass(self.entity_type, other.entity_type) or is_subclass(
                other.entity_type, self.entity_type
            )
            if not related:
                return False
        return True

    def to_json(self) -> dict:
        out: dict[str, str] = {}
        if self.entity_id is not None:
            out["id"] = self.entity_id
        if self.id_pattern is not None:
            out["idPattern"] = self.id_pattern
        if self.entity_type is not None:
            out["type"] = self.entity_type
        return out


def parse_patterns(raw: Any, where: str, allow_empty_pattern: bool = True) -> list[EntityPattern]:
    """The entity patterns of a request body's or subscription's 'entities'."""
    return [EntityPattern.from_json(p, allow_empty_pattern) for p in check(raw, "entities", ITEMS, where)]


def parse_attribute_names(raw: Any, where: str) -> list[str] | None:
    """The names of a request body's or subscription's 'attributes'; None
    means "no projection", and an explicit empty list means the same."""
    return list(check(raw, "attributes", _ATTRIBUTE_NAMES, where, [])) or None


@dataclass(frozen=True)
class BoundingBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    @staticmethod
    def from_json(obj: Any) -> "BoundingBox":
        if document(obj, "restriction").get("scopeType") != "bbox":
            raise ValueError("only the 'bbox' scopeType is supported")
        value = read(obj, "value", _BOX, "bbox restriction")
        box = BoundingBox(*(float(value[k]) for k in _CORNERS))
        if box.min_lon > box.max_lon or box.min_lat > box.max_lat:
            raise ValueError("bbox min corner must not exceed max corner")
        return box

    def contains(self, lon: float, lat: float) -> bool:
        return self.min_lon <= lon <= self.max_lon and self.min_lat <= lat <= self.max_lat

    def admits(self, entity: ContextEntity) -> bool:
        """True iff any attribute carries a location inside the box."""
        return any(self.contains(lon, lat) for lon, lat in entity.locations)


def wire_reply(entities: list[ContextEntity]) -> bytes:
    """A queryContext reply from the entities' wire forms, byte for byte
    ``json.dumps({"entities": [...]}, sort_keys=True)``."""
    return b'{"entities": [' + b", ".join(e.wire for e in entities) + b"]}"


def parse_entities(raw: Any, where: str) -> list[ContextEntity]:
    return [ContextEntity.from_json(e) for e in check(raw, "entities", ITEMS, where)]
