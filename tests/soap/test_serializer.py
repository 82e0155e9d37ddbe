"""Tests for the payload serializer, including hypothesis round-trips."""

import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soap.serializer import SerializationError, from_element, to_element
from repro.xmlutil import canonical_bytes, parse_bytes

TAG = "{urn:test}payload"

# Map keys XML 1.0 can carry in an attribute (no C0 controls other than
# tab/LF/CR, no surrogates, no U+FFFE/U+FFFF); other keys are rejected.
xml_key = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\ufffe\uffff"
    ).filter(lambda c: c >= " " or c in "\t\n\r"),
    max_size=60,
)

# String values are any text at all: lone surrogates are rejected at send
# time, everything else must round-trip.
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=60)
    | st.binary(max_size=60),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(xml_key, children, max_size=5),
    max_leaves=25,
)


def has_surrogate(value):
    if isinstance(value, str):
        return any("\ud800" <= c <= "\udfff" for c in value)
    if isinstance(value, list):
        return any(has_surrogate(item) for item in value)
    if isinstance(value, dict):
        return any(has_surrogate(item) for item in value.values())
    return False


def round_trip(value):
    element = to_element(TAG, value)
    # Force a real wire trip: serialize the XML and parse it back.
    wire = canonical_bytes(element)
    return from_element(parse_bytes(wire))


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        2**60,
        3.14159,
        -0.0,
        1e-300,
        "",
        "hello",
        "white  space\n\tkept",
        b"",
        b"\x00\xff\x80raw",
        [],
        [1, "two", None, [3.0]],
        {},
        {"k": "v", "nested": {"a": [1, 2]}},
        {"mixed": [True, {"deep": b"bytes"}]},
    ],
)
def test_round_trip_examples(value):
    assert round_trip(value) == value


def test_bool_is_not_confused_with_int():
    assert round_trip(True) is True
    assert round_trip(1) == 1
    assert not isinstance(round_trip(1), bool)


def test_float_precision_exact():
    value = 0.1 + 0.2
    assert round_trip(value) == value


def test_tuple_serializes_as_list():
    assert round_trip((1, 2)) == [1, 2]


def test_unsupported_type_rejected():
    with pytest.raises(SerializationError):
        to_element(TAG, object())


def test_non_string_map_key_rejected():
    with pytest.raises(SerializationError):
        to_element(TAG, {1: "x"})


def test_unknown_type_tag_rejected():
    element = ET.Element(TAG)
    element.set("t", "complex")
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_int_text_rejected():
    element = ET.Element(TAG)
    element.set("t", "int")
    element.text = "not-a-number"
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_bool_text_rejected():
    element = ET.Element(TAG)
    element.set("t", "bool")
    element.text = "yes"
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_base64_rejected():
    element = ET.Element(TAG)
    element.set("t", "bytes")
    element.text = "!!!not-base64!!!"
    with pytest.raises(SerializationError):
        from_element(element)


def test_map_entry_without_key_rejected():
    element = ET.Element(TAG)
    element.set("t", "map")
    child = ET.SubElement(element, "{urn:ws-gossip:2008:payload}entry")
    child.set("t", "null")
    with pytest.raises(SerializationError):
        from_element(element)


@pytest.mark.parametrize(
    "value",
    ["a\x00b", "a\x01b", "\x08\x0b\x0c\x1f", "\x1b[0m", "\ufffe\uffff", "cr\r\x00"],
)
def test_strings_xml_cannot_carry_round_trip(value):
    element = to_element(TAG, value)
    assert element.get("t") == "str64"
    assert round_trip(value) == value


@pytest.mark.parametrize("value", ["\ud800", "a\udfffb", ["ok", {"k": "\udc80"}]])
def test_lone_surrogate_rejected_at_send_time(value):
    with pytest.raises(SerializationError, match="surrogate"):
        to_element(TAG, value)


@pytest.mark.parametrize("key", ["a\x00", "\x01", "\ud800", "\uffff"])
def test_map_key_xml_cannot_carry_rejected(key):
    with pytest.raises(SerializationError, match="cannot carry"):
        to_element(TAG, {key: 1})


def test_map_key_with_cr_tab_lf_round_trips():
    value = {"a\rb": 1, "c\td": 2, "e\nf": 3}
    assert round_trip(value) == value


@given(json_like)
def test_round_trip_property(value):
    if has_surrogate(value):
        with pytest.raises(SerializationError):
            to_element(TAG, value)
    else:
        assert round_trip(value) == value


@given(st.dictionaries(xml_key, st.integers(), max_size=8))
def test_map_preserves_all_keys(value):
    assert round_trip(value) == value


@given(st.text(max_size=20))
def test_map_key_round_trips_or_is_rejected(key):
    value = {key: None}
    carried = all(c >= " " or c in "\t\n\r" for c in key) and not any(
        "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff" for c in key
    )
    if carried:
        assert round_trip(value) == value
    else:
        with pytest.raises(SerializationError):
            to_element(TAG, value)
