"""The asyncio bindings: versioned edge API, idempotent ingest, pooling.

The resilient-contract behaviour shared with the other bindings lives in
``test_contract.py``; this module covers what is specific to the asyncio
family -- node-to-node one-way and request/reply messaging, the ``/v1``
URL space, malformed-request handling, idempotent replay detection,
connection reuse under pipelining, the UDP datagram ceiling, and a small
live mesh end to end.
"""

import json
import time

import pytest

from repro.obs.hub import default_hub
from repro.soap.envelope import Envelope
from repro.soap.serializer import to_element
from repro.soap.service import Service, operation
from repro.transport.aio import (
    AioHttpTransport,
    AioUdpTransport,
    AsyncHttpNode,
    run_on_loop,
    shared_loop,
)
from repro.transport.edge import IdempotencyIndex
from repro.wsa.addressing import AddressingHeaders

ACTION = "urn:t/Take"
BROKEN_ACTION = "urn:t/Broken"
ECHO_ACTION = "urn:t/Echo"


class Sink(Service):
    def __init__(self):
        super().__init__()
        self.values = []

    @operation(ACTION)
    def take(self, context, value):
        self.values.append(value)
        return None

    @operation(BROKEN_ACTION)
    def broken(self, context, value):
        raise RuntimeError("service bug")

    @operation(ECHO_ACTION)
    def echo(self, context, value):
        return {"echo": value}


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def node():
    served = AsyncHttpNode(loop=shared_loop())
    served.sink = Sink()
    served.runtime.add_service("/svc", served.sink)
    with served:
        yield served


@pytest.fixture
def peer():
    with AsyncHttpNode(loop=shared_loop()) as served:
        yield served


@pytest.fixture
def client():
    transport = AioHttpTransport(loop=shared_loop())
    yield transport
    transport.close()


def fetch(client, url, headers=None):
    return run_on_loop(shared_loop(), client.get(url, headers=headers))


def post(client, url, body, headers=None):
    return run_on_loop(shared_loop(), client.post(url, body, headers=headers))


class TestNodeToNode:
    def test_one_way_over_http(self, node, peer):
        peer.runtime.send(f"{node.base_address}/svc", ACTION, value="hello")
        assert wait_for(lambda: node.sink.values == ["hello"])

    def test_request_reply_over_http(self, node, peer):
        replies = []
        peer.runtime.send(
            f"{node.base_address}/svc", ECHO_ACTION, value={"n": 7},
            on_reply=lambda context, value: replies.append(value),
        )
        assert wait_for(lambda: replies == [{"echo": {"n": 7}}])

    def test_send_to_dead_port_is_best_effort(self, peer):
        before = peer.transport.send_errors
        peer.runtime.send("http://127.0.0.1:1/nowhere", ACTION, value=1)
        assert wait_for(lambda: peer.transport.send_errors == before + 1)

    def test_context_manager_stops_server(self, peer):
        with AsyncHttpNode(loop=shared_loop()) as stopped:
            address = stopped.base_address
        before = peer.transport.send_errors
        peer.runtime.send(f"{address}/svc", ACTION, value=1)
        assert wait_for(lambda: peer.transport.send_errors == before + 1)


class TestVersionedEdge:
    def test_health(self, node, client):
        status, headers, body = fetch(client, f"{node.base_address}/v1/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["api"] == "v1"
        assert "/svc" in payload["services"]

    def test_metrics(self, node, client):
        status, headers, body = fetch(client, f"{node.base_address}/v1/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "deprecation" not in headers

    def test_legacy_metrics_path_is_gone(self, node, client):
        status, _, _ = fetch(client, f"{node.base_address}/metrics")
        assert status == 404

    def test_unknown_path_is_404(self, node, client):
        status, _, _ = fetch(client, f"{node.base_address}/nope")
        assert status == 404

    def test_legacy_post_ingests_with_deprecation(self, node, client):
        status, headers, _ = post(client, f"{node.base_address}/gossip", b"<x/>")
        assert status == 202
        assert headers["deprecation"] == "true"


LONG = b"a" * 70000


@pytest.mark.parametrize(
    "raw",
    [
        b"POST /v1/gossip HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        # A negative length must not turn the body into the next request.
        b"POST /v1/gossip HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        b"GET /v1/health HTTP/1.1\r\n\r\n",
        b"GET /" + LONG + b" HTTP/1.1\r\n\r\n",
        b"GET /v1/health HTTP/1.1\r\nX-Long: " + LONG + b"\r\n\r\n",
    ],
    ids=["content-length-abc", "content-length-negative",
         "request-line-over-limit", "header-line-over-limit"],
)
def test_malformed_request_answers_400_and_is_counted(node, raw):
    import socket

    malformed = node.hub.labeled_counter("wire.malformed", {"layer": "http"})
    before = malformed.value
    with socket.create_connection((node.host, node.port), timeout=5.0) as sock:
        sock.sendall(raw)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head = response.split(b"\r\n\r\n", 1)[0]
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head.split(b"\r\n")
    assert response.count(b"HTTP/1.1") == 1  # nothing served after it
    assert malformed.value == before + 1


class TestIdempotentIngest:
    def test_replayed_post_answers_200_without_reprocessing(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        keyed = {"Idempotency-Key": "pub-42"}
        before = node.hub.wire.idempotent_replays
        status, headers, _ = post(client, url, b"<x/>", headers=keyed)
        assert status == 202
        assert "idempotent-replay" not in headers
        status, headers, _ = post(client, url, b"<x/>", headers=keyed)
        assert status == 200
        assert headers["idempotent-replay"] == "true"
        assert node.hub.wire.idempotent_replays == before + 1

    def test_distinct_keys_are_both_processed(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        for key in ("pub-a", "pub-b"):
            status, _, _ = post(
                client, url, b"<x/>", headers={"Idempotency-Key": key}
            )
            assert status == 202

    def test_keyless_unparseable_body_is_always_processed(self, node, client):
        url = f"{node.base_address}/v1/gossip"
        for _ in range(2):
            status, _, _ = post(client, url, b"not-an-envelope")
            assert status == 202

    def test_raising_service_is_counted(self, node, client):
        envelope = Envelope(body=to_element("{urn:t}Broken", 1))
        AddressingHeaders(
            to=f"{node.base_address}/svc", action=BROKEN_ACTION,
            message_id="urn:uuid:broken-1",
        ).apply(envelope)
        errors = node.runtime.metrics.counter("soap.service-error")
        before = errors.value
        status, _, _ = post(client, f"{node.base_address}/v1/gossip", envelope.to_bytes())
        assert status == 202
        assert errors.value == before + 1

    def test_index_is_bounded(self):
        index = IdempotencyIndex(capacity=2)
        assert not index.check_and_remember("a")
        assert not index.check_and_remember("b")
        assert not index.check_and_remember("c")  # evicts "a"
        assert not index.check_and_remember("a")  # forgotten: processed again
        assert index.check_and_remember("a")


class TestPipelining:
    def test_many_posts_share_pooled_connections(self, node, client):
        url = f"{node.base_address}/v1/gossip"

        async def burst():
            import asyncio

            await asyncio.gather(*(
                client.post(url, b"<x/>", headers={"Idempotency-Key": f"k{n}"})
                for n in range(24)
            ))

        run_on_loop(shared_loop(), burst())
        stats = client.pool_stats()[f"{node.host}:{node.port}"]
        assert stats["requests"] == 24
        assert stats["connects"] <= client.pool_size  # reuse, not 24 sockets


class TestUdp:
    def test_oversize_datagram_is_a_structured_failure(self):
        transport = AioUdpTransport(loop=shared_loop(), max_datagram_bytes=64)
        outcomes = []
        transport.add_outcome_listener(outcomes.append)
        try:
            transport.send("udp://127.0.0.1:9/svc", b"x" * 65)
            assert wait_for(lambda: len(outcomes) == 1)
            assert not outcomes[0].ok
            assert outcomes[0].error == "oversize-datagram"
        finally:
            transport.close()


class TestLiveMesh:
    def test_small_udp_mesh_disseminates(self):
        from repro.core.aiodeploy import AsyncGossipMesh, soak_params

        mesh = AsyncGossipMesh(
            6, transport="udp",
            params=soak_params("udp", period=0.2), view_size=4, seed=3,
        )
        with mesh:
            gossip_id = mesh.publish({"px": 42}, publisher_index=0)
            assert wait_for(
                lambda: mesh.delivered_fraction(gossip_id, 0) == 1.0
            )

    def test_mesh_metrics_reach_the_default_hub(self, client):
        from repro.core.aiodeploy import AsyncGossipMesh, soak_params

        edge = AsyncHttpNode(loop=shared_loop(), hub=default_hub())
        mesh = AsyncGossipMesh(
            4, transport="udp",
            params=soak_params("udp", period=0.2), view_size=3, seed=5,
        )
        with edge, mesh:
            gossip_id = mesh.publish({"px": 1}, publisher_index=1)
            assert wait_for(
                lambda: mesh.delivered_fraction(gossip_id, 1) == 1.0
            )
            status, _, body = fetch(client, f"{edge.base_address}/v1/metrics")
        assert status == 200
        assert b"wire" in body or b"parse" in body
