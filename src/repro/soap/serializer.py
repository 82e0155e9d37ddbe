"""Payload serialization: plain Python values <-> XML elements.

The WS-Gossip services exchange structured payloads (peer lists, parameter
maps, stock ticks).  This module maps a small, closed set of Python types
onto XML so every payload is real wire XML yet round-trips exactly:

``None`` | ``bool`` | ``int`` | ``float`` | ``str`` | ``bytes`` |
``list`` of values | ``dict`` with ``str`` keys.

The value type is recorded in a ``t`` attribute; lists nest ``item``
children and dicts nest ``entry`` children with a ``k`` key attribute.
"""

from __future__ import annotations

import base64
import math
import re
import xml.etree.ElementTree as ET
from typing import Any

from repro.soap import namespaces as ns
from repro.xmlutil import qname


class SerializationError(ValueError):
    """Raised for unsupported types or malformed payload XML."""


_ITEM_TAG = qname(ns.PAYLOAD, "item")
_ENTRY_TAG = qname(ns.PAYLOAD, "entry")

# Characters outside XML 1.0's ``Char`` production: C0 controls other
# than tab/LF/CR, lone surrogates, U+FFFE and U+FFFF.  Attribute values
# (map keys) may hold CR, since the encoder writes it as ``&#13;``; text
# may not, since parsing normalizes a literal CR to LF.
_NOT_XML_ATTRIBUTE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_NOT_XML_TEXT = re.compile(r"[\x00-\x08\x0b-\x1f\ud800-\udfff\ufffe\uffff]")


def _utf8(value: str) -> bytes:
    try:
        return value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SerializationError(
            f"string holds a lone surrogate at index {exc.start}"
        ) from exc


def to_element(tag: str, value: Any) -> ET.Element:
    """Serialize ``value`` into an element named ``tag``.

    Raises:
        SerializationError: for types outside the supported set.
    """
    element = ET.Element(tag)
    _fill(element, value)
    return element


def _fill(element: ET.Element, value: Any) -> None:
    if value is None:
        element.set("t", "null")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        element.set("t", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("t", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("t", "float")
        element.text = repr(value)  # repr round-trips doubles exactly
    elif isinstance(value, str):
        # ``isprintable`` is the cheap common case: it is False for every
        # character the pattern matches (and for some it does not).
        if value.isprintable() or _NOT_XML_TEXT.search(value) is None:
            element.set("t", "str")
            element.text = value
        else:
            # XML 1.0 cannot carry most C0 controls or U+FFFE/U+FFFF at
            # all, and line-ending normalization turns a literal CR into
            # LF on parse, so such strings ride base64-encoded instead.
            element.set("t", "str64")
            element.text = base64.b64encode(_utf8(value)).decode("ascii")
    elif isinstance(value, (bytes, bytearray)):
        element.set("t", "bytes")
        element.text = base64.b64encode(bytes(value)).decode("ascii")
    elif isinstance(value, (list, tuple)):
        element.set("t", "list")
        for item in value:
            child = ET.SubElement(element, _ITEM_TAG)
            _fill(child, item)
    elif isinstance(value, dict):
        element.set("t", "map")
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"map keys must be str, got {type(key).__name__}"
                )
            if not key.isprintable() and _NOT_XML_ATTRIBUTE.search(key) is not None:
                raise SerializationError(
                    f"map key {key!r} holds characters XML 1.0 cannot carry"
                )
            child = ET.SubElement(element, _ENTRY_TAG)
            child.set("k", key)
            _fill(child, item)
    else:
        raise SerializationError(f"unsupported type: {type(value).__name__}")


def from_element(element: ET.Element) -> Any:
    """Deserialize an element produced by :func:`to_element`.

    Raises:
        SerializationError: on unknown ``t`` tags or malformed content.
    """
    kind = element.get("t")
    text = element.text or ""
    if kind == "null":
        return None
    if kind == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise SerializationError(f"bad bool text: {text!r}")
    if kind == "int":
        try:
            return int(text)
        except ValueError as exc:
            raise SerializationError(f"bad int text: {text!r}") from exc
    if kind == "float":
        try:
            return float(text)
        except ValueError as exc:
            raise SerializationError(f"bad float text: {text!r}") from exc
    if kind == "str":
        return text
    if kind == "str64":
        try:
            return base64.b64decode(text.encode("ascii"), validate=True).decode(
                "utf-8"
            )
        except Exception as exc:
            raise SerializationError(f"bad str64 payload: {text!r}") from exc
    if kind == "bytes":
        try:
            return base64.b64decode(text.encode("ascii"), validate=True)
        except Exception as exc:
            raise SerializationError(f"bad base64 payload: {text!r}") from exc
    if kind == "list":
        return [from_element(child) for child in element]
    if kind == "map":
        result = {}
        for child in element:
            key = child.get("k")
            if key is None:
                raise SerializationError("map entry missing key attribute")
            result[key] = from_element(child)
        return result
    raise SerializationError(f"unknown payload type tag: {kind!r}")
