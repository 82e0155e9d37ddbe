"""WS-Addressing 1.0 (2005/08) endpoint references and headers.

All messaging in this stack is one-way with WS-A semantics, the natural fit
for gossip: a request carries ``MessageID``/``ReplyTo``/``Action``; a reply
is itself a one-way message whose ``RelatesTo`` points back.  This is also
how the HTTP binding works (202 Accepted + callback), so the simulated and
real transports share one model.
"""

from __future__ import annotations

import uuid
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.xmlutil import qname

_TO = qname(ns.WSA, "To")
_ACTION = qname(ns.WSA, "Action")
_MESSAGE_ID = qname(ns.WSA, "MessageID")
_RELATES_TO = qname(ns.WSA, "RelatesTo")
_REPLY_TO = qname(ns.WSA, "ReplyTo")
_FROM = qname(ns.WSA, "From")
_ADDRESS = qname(ns.WSA, "Address")
_REFERENCE_PARAMETERS = qname(ns.WSA, "ReferenceParameters")
_MAP_TAGS = frozenset((_TO, _ACTION, _MESSAGE_ID, _RELATES_TO, _REPLY_TO, _FROM))


def new_message_id() -> str:
    """A fresh ``urn:uuid:`` message identifier."""
    return f"urn:uuid:{uuid.uuid4()}"


@dataclass(frozen=True)
class EndpointReference:
    """A WS-A endpoint reference: an address URI plus reference parameters.

    Reference parameters are opaque string pairs echoed back as headers by
    whoever replies -- WS-Coordination uses them to carry context
    identifiers.
    """

    address: str
    reference_parameters: Dict[str, str] = field(default_factory=dict)

    def to_element(self, tag: str) -> ET.Element:
        """Serialize as an EPR element named ``tag``."""
        element = ET.Element(tag)
        address = ET.SubElement(element, _ADDRESS)
        address.text = self.address
        if self.reference_parameters:
            params = ET.SubElement(element, _REFERENCE_PARAMETERS)
            for key, value in sorted(self.reference_parameters.items()):
                child = ET.SubElement(params, qname(ns.WSGOSSIP, key))
                child.text = value
        return element

    @classmethod
    def from_element(cls, element: ET.Element) -> "EndpointReference":
        """Parse an EPR element.

        Raises:
            ValueError: when the mandatory ``Address`` child is missing.
        """
        address = element.findtext(_ADDRESS)
        if address is None:
            raise ValueError("EndpointReference missing wsa:Address")
        parameters: Dict[str, str] = {}
        params = element.find(_REFERENCE_PARAMETERS)
        if params is not None:
            for child in params:
                local = child.tag.rpartition("}")[2]
                parameters[local] = child.text or ""
        return cls(address=address, reference_parameters=parameters)

    def __hash__(self) -> int:
        return hash((self.address, tuple(sorted(self.reference_parameters.items()))))


@dataclass
class AddressingHeaders:
    """The message addressing properties (MAPs) of one message."""

    to: Optional[str] = None
    action: Optional[str] = None
    message_id: Optional[str] = None
    relates_to: Optional[str] = None
    reply_to: Optional[EndpointReference] = None
    from_: Optional[EndpointReference] = None

    def apply(self, envelope: Envelope) -> None:
        """Write these MAPs into the envelope's headers (replacing any
        existing WS-A headers)."""
        envelope.remove_headers(_MAP_TAGS)
        if self.to is not None:
            element = ET.Element(_TO)
            element.text = self.to
            envelope.add_header(element)
        if self.action is not None:
            element = ET.Element(_ACTION)
            element.text = self.action
            envelope.add_header(element)
        if self.message_id is not None:
            element = ET.Element(_MESSAGE_ID)
            element.text = self.message_id
            envelope.add_header(element)
        if self.relates_to is not None:
            element = ET.Element(_RELATES_TO)
            element.text = self.relates_to
            envelope.add_header(element)
        if self.reply_to is not None:
            envelope.add_header(self.reply_to.to_element(_REPLY_TO))
        if self.from_ is not None:
            envelope.add_header(self.from_.to_element(_FROM))

    @classmethod
    def extract(cls, envelope: Envelope) -> "AddressingHeaders":
        """Read the MAPs present in an envelope (absent ones stay ``None``)."""
        reply_to_element = envelope.header(_REPLY_TO)
        from_element = envelope.header(_FROM)
        return cls(
            to=envelope.header_text(_TO),
            action=envelope.header_text(_ACTION),
            message_id=envelope.header_text(_MESSAGE_ID),
            relates_to=envelope.header_text(_RELATES_TO),
            reply_to=(
                EndpointReference.from_element(reply_to_element)
                if reply_to_element is not None
                else None
            ),
            from_=(
                EndpointReference.from_element(from_element)
                if from_element is not None
                else None
            ),
        )
