"""Context model shared by the broker, the mediation gateway and the
agents: entities with named attributes, per-attribute metadata, entity
patterns and bounding-box restrictions.

Parsing functions raise ValueError; HTTP services translate those into
400 responses at the boundary.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

Scalar = str | int | float | bool

LOCATION_METADATA = "location"


def _require_scalar(value: Any, where: str) -> Scalar:
    if isinstance(value, bool) or isinstance(value, (str, int, float)):
        return value
    raise ValueError(f"{where} must be a JSON scalar, got {type(value).__name__}")


def _finite(value: Any) -> float | None:
    """A JSON number (not a bool) as a finite float; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        return None
    return value if math.isfinite(value) else None


def _location_pair(value: Any, where: str) -> list[float]:
    pair = [_finite(v) for v in value] if isinstance(value, (list, tuple)) else []
    if len(pair) != 2 or None in pair:
        raise ValueError(f"{where} must be a [lon, lat] pair of finite numbers")
    return pair


@dataclass(frozen=True)
class ContextMetadata:
    name: str
    type: str
    value: Any  # scalar, or [lon, lat] for "location"

    @staticmethod
    def from_json(obj: Any, where: str) -> "ContextMetadata":
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str) or not obj["name"]:
            raise ValueError(f"{where}: metadata needs a non-empty 'name'")
        name = obj["name"]
        mtype = obj.get("type", "string")
        if not isinstance(mtype, str):
            raise ValueError(f"{where}: metadata 'type' must be a string")
        if "value" not in obj:
            raise ValueError(f"{where}: metadata '{name}' needs a 'value'")
        if name == LOCATION_METADATA:
            value = _location_pair(obj["value"], f"{where}: metadata 'location'")
        else:
            value = _require_scalar(obj["value"], f"{where}: metadata '{name}' value")
        return ContextMetadata(name, mtype, value)

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
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str) or not obj["name"]:
            raise ValueError(f"{where}: attribute needs a non-empty 'name'")
        name = obj["name"]
        if "value" not in obj:
            raise ValueError(f"{where}: attribute '{name}' needs a 'value'")
        value = _require_scalar(obj["value"], f"{where}: attribute '{name}' value")
        raw_meta = obj.get("metadata", [])
        if not isinstance(raw_meta, list):
            raise ValueError(f"{where}: attribute '{name}' metadata must be a list")
        metadata = tuple(
            ContextMetadata.from_json(m, f"{where}: attribute '{name}'") for m in raw_meta
        )
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
        if not isinstance(obj, dict):
            raise ValueError("entity must be a JSON object")
        entity_id = obj.get("id")
        if not isinstance(entity_id, str) or not entity_id:
            raise ValueError("entity needs a non-empty string 'id'")
        entity_type = obj.get("type", "")
        if not isinstance(entity_type, str):
            raise ValueError(f"entity '{entity_id}': 'type' must be a string")
        raw_attrs = obj.get("attributes", [])
        if not isinstance(raw_attrs, list):
            raise ValueError(f"entity '{entity_id}': 'attributes' must be a list")
        attributes = tuple(
            ContextAttribute.from_json(a, f"entity '{entity_id}'") for a in raw_attrs
        )
        return ContextEntity(entity_id, entity_type, attributes)

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
        if not isinstance(obj, dict):
            raise ValueError("entity pattern must be a JSON object")
        entity_id = obj.get("id")
        id_pattern = obj.get("idPattern")
        entity_type = obj.get("type")
        for label, value in (("id", entity_id), ("idPattern", id_pattern), ("type", entity_type)):
            if value is not None and (not isinstance(value, str) or not value):
                raise ValueError(f"entity pattern '{label}' must be a non-empty string")
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
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{where}: 'entities' must be a non-empty list of patterns")
    return [EntityPattern.from_json(p, allow_empty=allow_empty_pattern) for p in raw]


def parse_attribute_names(raw: Any, where: str) -> list[str] | None:
    """None means "no projection"; an explicit empty list means the same."""
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(a, str) and a for a in raw):
        raise ValueError(f"{where}: 'attributes' must be a list of non-empty strings")
    return list(raw) or None


@dataclass(frozen=True)
class BoundingBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    @staticmethod
    def from_json(obj: Any) -> "BoundingBox":
        if not isinstance(obj, dict):
            raise ValueError("restriction must be a JSON object")
        if obj.get("scopeType") != "bbox":
            raise ValueError("only the 'bbox' scopeType is supported")
        value = obj.get("value")
        if not isinstance(value, dict):
            raise ValueError("bbox restriction needs a 'value' object")
        corners = [_finite(value.get(k)) for k in ("minLon", "minLat", "maxLon", "maxLat")]
        if None in corners:
            raise ValueError("bbox value needs finite numbers minLon, minLat, maxLon, maxLat")
        box = BoundingBox(*corners)
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
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{where}: 'entities' must be a non-empty list")
    entities = [ContextEntity.from_json(e) for e in raw]
    return entities
