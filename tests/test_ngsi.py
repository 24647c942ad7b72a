"""Context entity model, entity patterns and bounding boxes."""

import json

import pytest

from giots.ngsi import (
    BoundingBox,
    ContextAttribute,
    ContextEntity,
    ContextMetadata,
    EntityPattern,
    parse_attribute_names,
    parse_patterns,
    wire_reply,
)

ONT = "http://wise-iot.example/onto#"


def _no_hierarchy(sub: str, sup: str) -> bool:
    return sub == sup


def _room_hierarchy(sub: str, sup: str) -> bool:
    return sub == sup or (sub == ONT + "MeetingRoom" and sup == ONT + "Room")


# --- entities -----------------------------------------------------------------


def test_entity_json_round_trip_sorts_attributes_and_metadata():
    entity = ContextEntity.from_json(
        {
            "id": "room123",
            "type": ONT + "Room",
            "attributes": [
                {
                    "name": "temperature",
                    "value": 21.5,
                    "metadata": [
                        {"name": "unit", "type": "string", "value": "celsius"},
                        {"name": "location", "type": "geo:point", "value": [8.8, 53.1]},
                    ],
                },
                {"name": "occupancy", "value": 4},
            ],
        }
    )
    out = entity.to_json()
    assert [a["name"] for a in out["attributes"]] == ["occupancy", "temperature"]
    temperature = out["attributes"][1]
    assert [m["name"] for m in temperature["metadata"]] == ["location", "unit"]
    assert temperature["metadata"][0]["value"] == [8.8, 53.1]
    # the canonical JSON form is a fixpoint of parse/serialize
    assert ContextEntity.from_json(out).to_json() == out


def test_entity_defaults_and_validation():
    bare = ContextEntity.from_json({"id": "x"})
    assert bare.type == ""
    assert bare.attributes == ()
    for broken in (
        "nope",
        {},
        {"id": ""},
        {"id": "x", "type": 7},
        {"id": "x", "attributes": "nope"},
        {"id": "x", "attributes": [{"name": "", "value": 1}]},
        {"id": "x", "attributes": [{"name": "a"}]},
        {"id": "x", "attributes": [{"name": "a", "value": {"nested": 1}}]},
    ):
        with pytest.raises(ValueError):
            ContextEntity.from_json(broken)


def test_duplicate_attribute_and_metadata_names_are_rejected():
    attr = ContextAttribute("a", 1)
    with pytest.raises(ValueError):
        ContextEntity("x", "", (attr, attr))
    meta = ContextMetadata("m", "string", "v")
    with pytest.raises(ValueError):
        ContextAttribute("a", 1, (meta, meta))


def test_location_metadata_must_be_lon_lat_pair():
    good = ContextMetadata.from_json(
        {"name": "location", "type": "geo:point", "value": [8, 53]}, "t"
    )
    assert good.value == [8.0, 53.0]
    for bad in ([8], [8, 53, 1], ["8", "53"], "8,53", [True, False], [10**400, 53],
                [float("nan"), 53], [8, float("inf")]):
        with pytest.raises(ValueError):
            ContextMetadata.from_json({"name": "location", "type": "geo:point", "value": bad}, "t")


def test_merged_replaces_attributes_by_name():
    entity = ContextEntity("x", "T", (ContextAttribute("a", 1), ContextAttribute("b", 2)))
    updated = entity.merged(
        ContextEntity("x", "", (ContextAttribute("c", 3), ContextAttribute("b", 9)))
    )
    assert [(a.name, a.value) for a in updated.attributes] == [("a", 1), ("b", 9), ("c", 3)]
    assert updated.type == "T"  # an empty type keeps the stored one
    assert entity.merged(ContextEntity("x", "U")).type == "U"


def test_project_keeps_named_attributes_only():
    entity = ContextEntity("x", "T", (ContextAttribute("a", 1), ContextAttribute("b", 2)))
    assert [a.name for a in entity.project(["b", "zzz"]).attributes] == ["b"]
    assert entity.project(None) is entity
    assert entity.project(["zzz"]).attributes == ()
    assert entity.project(["b", "a"]) is entity  # keeps every attribute: no copy


def test_attribute_lookup_and_metadata_value():
    meta = ContextMetadata("unit", "string", "kelvin")
    entity = ContextEntity("x", "T", (ContextAttribute("temp", 300, (meta,)),))
    assert entity.attribute("temp").metadata_value("unit") == "kelvin"
    assert entity.attribute("temp").metadata_value("absent") is None
    assert entity.attribute("absent") is None


# --- patterns ------------------------------------------------------------------


def test_pattern_id_xor_id_pattern():
    with pytest.raises(ValueError):
        EntityPattern.from_json({"id": "a", "idPattern": "a.*"})
    with pytest.raises(ValueError):
        EntityPattern.from_json({"idPattern": "(unclosed"})
    with pytest.raises(ValueError):
        EntityPattern.from_json({"id": ""})
    with pytest.raises(ValueError):
        EntityPattern.from_json({}, allow_empty=False)
    assert EntityPattern.from_json({}).matches("anything", "T", _no_hierarchy)


def test_pattern_id_regex_is_anchored():
    pattern = EntityPattern.from_json({"idPattern": "room"})
    assert pattern.matches("room", "", _no_hierarchy)
    assert not pattern.matches("room123", "", _no_hierarchy)
    wild = EntityPattern.from_json({"idPattern": "room.*"})
    assert wild.matches("room123", "", _no_hierarchy)


def test_pattern_type_uses_subsumption():
    pattern = EntityPattern.from_json({"type": ONT + "Room"})
    assert pattern.matches("x", ONT + "MeetingRoom", _room_hierarchy)
    assert not pattern.matches("x", ONT + "MeetingRoom", _no_hierarchy)
    assert pattern.matches("x", ONT + "Room", _no_hierarchy)


def test_pattern_intersection_cases():
    exact_a = EntityPattern.from_json({"id": "a"})
    exact_b = EntityPattern.from_json({"id": "b"})
    regex_a = EntityPattern.from_json({"idPattern": "a.*"})
    regex_z = EntityPattern.from_json({"idPattern": "z.*"})
    assert not exact_a.intersects(exact_b, _no_hierarchy)
    assert exact_a.intersects(exact_a, _no_hierarchy)
    assert exact_a.intersects(regex_a, _no_hierarchy)
    assert regex_a.intersects(exact_a, _no_hierarchy)
    assert not exact_a.intersects(regex_z, _no_hierarchy)
    # two regexes are treated as compatible (over-approximation)
    assert regex_a.intersects(regex_z, _no_hierarchy)
    room = EntityPattern.from_json({"type": ONT + "Room"})
    meeting = EntityPattern.from_json({"type": ONT + "MeetingRoom"})
    hall = EntityPattern.from_json({"type": ONT + "Hall"})
    # type intersection is symmetric in the hierarchy direction
    assert room.intersects(meeting, _room_hierarchy)
    assert meeting.intersects(room, _room_hierarchy)
    assert not room.intersects(hall, _room_hierarchy)


def test_parse_patterns_and_attribute_names():
    patterns = parse_patterns([{"id": "a"}, {"type": "T"}], "op")
    assert len(patterns) == 2
    with pytest.raises(ValueError):
        parse_patterns([], "op")
    with pytest.raises(ValueError):
        parse_patterns("nope", "op")
    assert parse_attribute_names(None, "op") is None
    assert parse_attribute_names([], "op") is None
    assert parse_attribute_names(["a"], "op") == ["a"]
    with pytest.raises(ValueError):
        parse_attribute_names([""], "op")
    with pytest.raises(ValueError):
        parse_attribute_names("nope", "op")


# --- bounding boxes ----------------------------------------------------------------


def test_bbox_parsing_and_validation():
    box = BoundingBox.from_json(
        {"scopeType": "bbox", "value": {"minLon": 8, "minLat": 53, "maxLon": 9, "maxLat": 54}}
    )
    assert box == BoundingBox(8.0, 53.0, 9.0, 54.0)
    with pytest.raises(ValueError):
        BoundingBox.from_json({"scopeType": "circle", "value": {}})
    with pytest.raises(ValueError):
        BoundingBox.from_json(
            {"scopeType": "bbox", "value": {"minLon": 9, "minLat": 53, "maxLon": 8, "maxLat": 54}}
        )
    with pytest.raises(ValueError):
        BoundingBox.from_json({"scopeType": "bbox", "value": {"minLon": 8}})
    # a corner must be a finite JSON number: not a string, a bool, NaN or infinite
    for bad in ("8.5", True, None, [8], "nan", "-inf", "inf", float("nan"), float("-inf"),
                10**400):
        with pytest.raises(ValueError):
            BoundingBox.from_json(
                {"scopeType": "bbox", "value": {"minLon": bad, "minLat": 53, "maxLon": 9, "maxLat": 54}}
            )
        with pytest.raises(ValueError):
            BoundingBox.from_json(
                {"scopeType": "bbox", "value": {"minLon": 8, "minLat": 53, "maxLon": 9, "maxLat": bad}}
            )


def test_bbox_edges_are_inclusive():
    box = BoundingBox(8.0, 53.0, 9.0, 54.0)
    assert box.contains(8.0, 53.0)
    assert box.contains(9.0, 54.0)
    assert not box.contains(7.999, 53.5)


def test_bbox_admits_entities_by_attribute_location():
    inside = ContextEntity(
        "in",
        "T",
        (
            ContextAttribute(
                "temp", 1, (ContextMetadata("location", "geo:point", [8.5, 53.5]),)
            ),
        ),
    )
    outside = ContextEntity(
        "out",
        "T",
        (
            ContextAttribute(
                "temp", 1, (ContextMetadata("location", "geo:point", [10.0, 53.5]),)
            ),
        ),
    )
    bare = ContextEntity("bare", "T", (ContextAttribute("temp", 1),))
    box = BoundingBox(8.0, 53.0, 9.0, 54.0)
    assert box.admits(inside)
    assert not box.admits(outside)
    assert not box.admits(bare)


# --- the stored wire form -------------------------------------------------------------


def _located(entity_id, lon, lat, extra=()):
    location = ContextMetadata("location", "geo:point", [lon, lat])
    unit = ContextMetadata("unit", "string", "°C")
    attrs = (ContextAttribute("zeta", 1.5, (unit, location)), ContextAttribute("alpha", "ü"), *extra)
    return ContextEntity(entity_id, "T", attrs)


def test_the_wire_form_is_the_sorted_json_of_to_json_computed_once():
    entity = _located("e1", 8.5, 53.5)
    assert entity.wire == json.dumps(entity.to_json(), sort_keys=True).encode("utf-8")
    assert entity.wire is entity.wire
    assert entity.locations == [[8.5, 53.5]]
    assert entity.locations is entity.locations
    assert _located("e1", 8.5, 53.5) == entity  # the cached forms take no part in equality


def test_a_query_reply_is_byte_identical_to_dumping_the_entities():
    entities = [_located("e1", 8.5, 53.5), ContextEntity("e2", ""),
                _located("e3", 1, 2, (ContextAttribute("beta", True),))]
    for chosen in ([], entities[:1], entities):
        expected = json.dumps({"entities": [e.to_json() for e in chosen]}, sort_keys=True)
        assert wire_reply(chosen) == expected.encode("utf-8")
