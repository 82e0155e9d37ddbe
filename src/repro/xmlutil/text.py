"""Serialization helpers on top of :mod:`xml.etree.ElementTree`."""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from operator import itemgetter
from typing import Dict, List


class XmlParseError(ValueError):
    """Raised when bytes do not parse as well-formed XML."""


def parse_bytes(data: bytes) -> ET.Element:
    """Parse ``data`` into an element tree root.

    Raises:
        XmlParseError: on malformed input (wraps the ElementTree error so
        callers need not depend on its exception type).
    """
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc


_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>\n"
# ElementTree's own registry and escapers, read live so a
# ``register_namespace`` call and the running Python's escaping rules
# apply to both encoders alike.
_REGISTERED = ET._namespace_map  # type: ignore[attr-defined]
_escape_cdata = ET._escape_cdata  # type: ignore[attr-defined]
_escape_attrib = ET._escape_attrib  # type: ignore[attr-defined]


class _Unsupported(Exception):
    """The tree holds a node the one-walk encoder leaves to ElementTree."""


def reference_bytes(element: ET.Element) -> bytes:
    """ElementTree's own encoding of ``element``: what
    :func:`canonical_bytes` reproduces, and its path for unusual trees."""
    buffer = io.BytesIO()
    ET.ElementTree(element).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue()


def canonical_bytes(element: ET.Element) -> bytes:
    """Serialize an element to UTF-8 bytes with an XML declaration.

    The result is byte-identical to :func:`reference_bytes`, i.e. to
    ``ElementTree(element).write(buffer, encoding="utf-8",
    xml_declaration=True)`` on the running Python: the same declaration,
    namespace prefixes from ElementTree's registry (``xml``, ``wsdl``, ...)
    or else ``ns0``, ``ns1``, ... in first-encounter (pre-order: tag, then
    attribute keys) order, all declared on the root sorted by prefix, the
    same text and attribute escaping, `` />`` for empty elements, and
    characters UTF-8 cannot carry (lone surrogates) written as character
    references.  Not full C14N, but stable for a given tree, which is all
    the stack needs.

    It gets there in one pre-order walk that joins string fragments and
    encodes once.  A tree holding anything but ``str`` tags, attribute
    keys and values, text and tails -- a Comment or ProcessingInstruction,
    an ``ET.QName``, non-``str`` text -- is handed whole to
    :func:`reference_bytes`, which encodes it or raises as ElementTree
    does.
    """
    try:
        text = _encode(element)
    except (_Unsupported, TypeError):  # TypeError: an unhashable tag
        return reference_bytes(element)
    return text.encode("utf-8", "xmlcharrefreplace")


def _declarations(namespaces: Dict[str, str]) -> str:
    return "".join(
        [
            f' xmlns:{prefix}="{_escape_attrib(uri)}"'
            if prefix
            else f' xmlns="{_escape_attrib(uri)}"'
            for uri, prefix in sorted(namespaces.items(), key=itemgetter(1))
        ]
    )


def _encode(root: ET.Element) -> str:
    namespaces: Dict[str, str] = {}  # uri -> prefix, in assignment order
    names: Dict[str, str] = {}  # tag or attribute key -> "prefix:local"
    parts: List[str] = [_DECLARATION]
    append = parts.append

    def name(tag: str) -> str:
        # ElementTree's ``_namespaces.add_qname``.
        if type(tag) is not str:
            raise _Unsupported
        if tag[:1] == "{":
            uri, brace, local = tag[1:].rpartition("}")
            if not brace:
                raise _Unsupported
            prefix = namespaces.get(uri)
            if prefix is None:
                prefix = _REGISTERED.get(uri)
                if prefix is None:
                    prefix = "ns%d" % len(namespaces)
                if prefix != "xml":
                    namespaces[uri] = prefix
            encoded = prefix + ":" + local if prefix else local
        else:
            encoded = tag
        names[tag] = encoded
        return encoded

    def visit(elem: ET.Element) -> None:
        tag = names.get(elem.tag) or name(elem.tag)
        append("<" + tag)
        for key, value in elem.items():
            if type(value) is not str:
                raise _Unsupported
            if not value.isalnum():  # alphanumerics need no escaping
                value = _escape_attrib(value)
            append(f' {names.get(key) or name(key)}="{value}"')
        text = elem.text
        if text or len(elem):
            append(">")
            if text:
                if type(text) is not str:
                    raise _Unsupported
                if "&" in text or "<" in text or ">" in text:
                    text = _escape_cdata(text)
                append(text)
            for child in elem:
                visit(child)
            append("</" + tag + ">")
        else:
            append(" />")
        tail = elem.tail
        if tail:
            if type(tail) is not str:
                raise _Unsupported
            if "&" in tail or "<" in tail or ">" in tail:
                tail = _escape_cdata(tail)
            append(tail)

    visit(root)
    if namespaces:
        parts[1] += _declarations(namespaces)
    return "".join(parts)


def indent(element: ET.Element, level: int = 0) -> ET.Element:
    """In-place pretty-print indentation (for logs and examples)."""
    pad = "\n" + "  " * level
    children = list(element)
    if children:
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in children:
            indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not children[-1].tail or not children[-1].tail.strip():
            children[-1].tail = pad
    return element
