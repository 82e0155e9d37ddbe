"""Tests for the XML utility helpers."""

import io
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.xmlutil.text as xmltext
from repro.xmlutil import canonical_bytes, indent, parse_bytes
from repro.xmlutil.text import XmlParseError, reference_bytes

XML_NS = "http://www.w3.org/XML/1998/namespace"
WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
# Thirteen namespaces, so a tree can reach ``ns10`` (which sorts before
# ``ns2``) as well as registered prefixes (``xml``, ``wsdl``, ``xsi``).
NAMESPACES = [XML_NS, WSDL_NS, "http://www.w3.org/2001/XMLSchema-instance"] + [
    f"urn:test:{n}" for n in range(9)
] + ['urn:quote"amp&lt<gt>']
LOCALS = ["a", "item", "Envelope", "k", "t", "x-y", "\u00e9l\u00e9ment"]

names = st.one_of(
    st.sampled_from(LOCALS),
    st.builds(lambda uri, local: f"{{{uri}}}{local}", st.sampled_from(NAMESPACES), st.sampled_from(LOCALS)),
)
# Attribute values: the characters ElementTree escapes in attributes,
# plus anything else.
attribute_values = st.text(alphabet=st.sampled_from('"\n\r\t&<>\' x\u00e9\u20ac') | st.characters(), max_size=12)
# Text and tails: markup characters, non-ASCII and lone surrogates.
texts = st.one_of(
    st.none(),
    st.just(""),
    st.text(alphabet=st.sampled_from("&<>\"\n \u00e9\U0001f600\ud800\udfff") | st.characters(), max_size=12),
)
# XML-safe text, for trees that must survive a parse.
safe_texts = st.one_of(
    st.none(),
    st.text(alphabet=st.sampled_from("&<>\"'\t\n\r \u00e9x"), max_size=8),
)


def trees(text_strategy=texts, value_strategy=attribute_values):
    node = st.tuples(names, st.dictionaries(names, value_strategy, max_size=3), text_strategy, text_strategy)
    return st.recursive(
        st.tuples(node, st.just([])),
        lambda children: st.tuples(node, st.lists(children, max_size=4)),
        max_leaves=20,
    ).map(build)


def build(spec):
    (tag, attrib, text, tail), children = spec
    element = ET.Element(tag, attrib)
    element.text = text
    element.tail = tail
    element.extend(build(child) for child in children)
    return element


class TestParseBytes:
    def test_parses_well_formed(self):
        root = parse_bytes(b"<a><b>text</b></a>")
        assert root.tag == "a"
        assert root.find("b").text == "text"

    def test_malformed_raises_wrapped_error(self):
        with pytest.raises(XmlParseError):
            parse_bytes(b"<a><b></a>")

    def test_xmlparseerror_is_valueerror(self):
        assert issubclass(XmlParseError, ValueError)


class TestCanonicalBytes:
    def test_declaration_and_round_trip(self):
        root = ET.Element("{urn:x}root")
        child = ET.SubElement(root, "{urn:x}child")
        child.text = "v"
        data = canonical_bytes(root)
        assert data.startswith(b"<?xml")
        reparsed = parse_bytes(data)
        assert reparsed.tag == "{urn:x}root"
        assert reparsed[0].text == "v"

    def test_stable_for_same_tree(self):
        root = ET.Element("a")
        ET.SubElement(root, "b")
        assert canonical_bytes(root) == canonical_bytes(root)


class TestIndent:
    def test_adds_newlines(self):
        root = ET.Element("a")
        ET.SubElement(root, "b")
        ET.SubElement(root, "c")
        indent(root)
        text = ET.tostring(root).decode()
        assert "\n" in text

    def test_leaf_untouched(self):
        leaf = ET.Element("a")
        leaf.text = "payload"
        indent(leaf)
        assert leaf.text == "payload"

    def test_nested_indentation_is_parseable(self):
        root = ET.Element("a")
        middle = ET.SubElement(root, "b")
        ET.SubElement(middle, "c")
        indent(root)
        reparsed = parse_bytes(ET.tostring(root))
        assert reparsed.find("b/c") is not None


class TestEncoderMatchesElementTree:
    @settings(max_examples=300, deadline=None)
    @given(trees())
    def test_generated_trees(self, tree):
        assert canonical_bytes(tree) == reference_bytes(tree)

    @settings(deadline=None)
    @given(trees())
    def test_indented_trees(self, tree):
        indent(tree)
        assert canonical_bytes(tree) == reference_bytes(tree)

    @settings(deadline=None)
    @given(trees(safe_texts, safe_texts.filter(bool)))
    def test_trees_parsed_from_pretty_printed_xml(self, tree):
        tree.tail = None  # a document has nothing after its root
        parsed = parse_bytes(reference_bytes(indent(tree)))
        assert canonical_bytes(parsed) == reference_bytes(parsed)

    def test_known_bytes(self):
        root = ET.Element("{urn:b}root", {"{%s}lang" % XML_NS: "en", "q": 'a"b\n\r\t&<>'})
        child = ET.SubElement(root, "{%s}definitions" % WSDL_NS)
        ET.SubElement(child, "{urn:a}empty")
        ET.SubElement(child, "plain").text = "x & y < z\ud800"
        child.tail = "\u20ac"
        assert canonical_bytes(root) == (
            b"<?xml version='1.0' encoding='utf-8'?>\n"
            b'<ns0:root xmlns:ns0="urn:b" xmlns:ns2="urn:a" '
            b'xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" '
            b'xml:lang="en" q="a&quot;b&#10;&#13;&#09;&amp;&lt;&gt;">'
            b"<wsdl:definitions><ns2:empty /><plain>x &amp; y &lt; z&#55296;</plain>"
            b"</wsdl:definitions>\xe2\x82\xac</ns0:root>"
        )

    def test_registered_prefix_is_read_live(self):
        ET.register_namespace("tst", "urn:registered")
        try:
            root = ET.Element("{urn:registered}a")
            ET.SubElement(root, "{urn:other}b")
            data = canonical_bytes(root)
            assert data == reference_bytes(root)
            assert b"<tst:a " in data
        finally:
            del ET.register_namespace._namespace_map["urn:registered"]

    def test_plain_tree_does_not_take_the_reference_path(self, monkeypatch):
        monkeypatch.setattr(xmltext, "reference_bytes", _forbidden)
        root = ET.Element("{urn:x}root", {"k": "v"})
        ET.SubElement(root, "child").text = "t"
        assert canonical_bytes(root).endswith(b'<ns0:root xmlns:ns0="urn:x" k="v"><child>t</child></ns0:root>')

    @pytest.mark.parametrize(
        "build_tree",
        [
            lambda: _with_child(ET.Comment(" note & <more> ")),
            lambda: _with_child(ET.ProcessingInstruction("target", "data")),
            lambda: ET.Element(ET.QName("urn:q", "root")),
            lambda: ET.Element("root", {"ref": ET.QName("urn:q", "value")}),
            lambda: ET.Element("root", {ET.QName("urn:q", "key"): "v"}),
            lambda: ET.Element("root", {"k": ["unhashable"]}),
        ],
        ids=["comment", "pi", "qname-tag", "qname-value", "qname-key", "list-value"],
    )
    def test_other_nodes_take_the_reference_path(self, monkeypatch, build_tree):
        calls = []
        real = xmltext.reference_bytes

        def spy(element):
            calls.append(element)
            return real(element)

        monkeypatch.setattr(xmltext, "reference_bytes", spy)
        tree = build_tree()
        buffer = io.BytesIO()
        ET.ElementTree(tree).write(buffer, encoding="utf-8", xml_declaration=True)
        assert canonical_bytes(tree) == buffer.getvalue()
        assert calls == [tree]

    def test_qname_value_after_equal_string_value(self):
        # ET.QName hashes and compares equal to its text, so nothing the
        # encoder learned from the plain string may leak into the QName.
        plain = ET.Element("root", {"ref": "{urn:q}value"})
        qualified = ET.Element("root", {"ref": ET.QName("urn:q", "value")})
        for tree in (plain, qualified, plain):
            assert canonical_bytes(tree) == reference_bytes(tree)
        assert b'xmlns:ns0="urn:q" ref="ns0:value"' in canonical_bytes(qualified)

    def test_non_string_text_raises_as_elementtree_does(self):
        root = ET.Element("root")
        root.text = 5
        with pytest.raises(TypeError):
            reference_bytes(root)
        with pytest.raises(TypeError):
            canonical_bytes(root)


def _with_child(node):
    root = ET.Element("{urn:x}root")
    root.append(node)
    node.tail = "tail"
    return root


def _forbidden(element):
    raise AssertionError("the one-walk encoder fell back to ElementTree")
