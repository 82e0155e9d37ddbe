"""Unit-level tests for the HTTP deployment helpers (the full end-to-end
flow lives in test_http_gossip.py)."""

import time

import pytest

from repro.core.httpdeploy import (
    HttpAppNode,
    HttpCoordinator,
    HttpDisseminator,
    HttpInitiator,
)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_coordinator_mounts_standard_services():
    coordinator = HttpCoordinator()
    paths = coordinator.node.runtime.service_paths()
    assert paths == ["/activation", "/registration", "/subscription"]
    assert coordinator.activation_address.endswith("/activation")
    assert coordinator.subscription_address.endswith("/subscription")


def test_disseminator_has_gossip_layer_and_port():
    node = HttpDisseminator()
    assert len(node.node.runtime.chain) == 1
    assert "/gossip" in node.node.runtime.service_paths()
    assert node.app_address.endswith("/app")


def test_app_node_records_deliveries():
    node = HttpAppNode()
    node.bind("urn:t/Event")
    calls = []
    node.app_service.lookup("urn:t/Event")(_FakeContext(), {"x": 1})
    assert node.deliveries[0]["value"] == {"x": 1}
    assert node.deliveries[0]["gossip_id"] is None


class _FakeContext:
    class _Envelope:
        @staticmethod
        def header(tag):
            return None

    envelope = _Envelope()


def test_activation_and_publish_over_http():
    coordinator = HttpCoordinator(seed=1)
    initiator = HttpInitiator(seed=2)
    consumer = HttpAppNode()
    nodes = [coordinator, initiator, consumer]
    try:
        for node in nodes:
            node.start()
        initiator.bind("urn:t/Event")
        consumer.bind("urn:t/Event")
        engines = []
        initiator.activate(
            coordinator.activation_address,
            parameters={"fanout": 2, "rounds": 2},
            on_ready=engines.append,
        )
        assert wait_for(lambda: bool(engines))
        activity_id = engines[0].activity_id
        consumer.subscribe(coordinator.subscription_address, activity_id)
        assert wait_for(
            lambda: len(
                coordinator.coordinator.activity(activity_id).participants
            ) >= 2
        )
        initiator.refresh_view(activity_id)
        assert wait_for(lambda: len(engines[0].view) >= 1)
        gossip_id = initiator.publish(activity_id, "urn:t/Event", {"n": 1})
        assert wait_for(lambda: consumer.has_delivered(gossip_id))
    finally:
        for node in nodes:
            node.stop()


def test_publish_from_caller_thread_runs_engine_on_loop_thread():
    from repro.transport.aio import _on_loop

    coordinator = HttpCoordinator(seed=1)
    initiator = HttpInitiator(seed=2)
    nodes = [coordinator, initiator]
    try:
        for node in nodes:
            node.start()
        engines = []
        initiator.activate(coordinator.activation_address, on_ready=engines.append)
        assert wait_for(lambda: bool(engines))
        engine = engines[0]
        on_loop = []
        publish = engine.publish

        def recording_publish(*args, **kwargs):
            on_loop.append(_on_loop(initiator.node.loop))
            return publish(*args, **kwargs)

        engine.publish = recording_publish
        gossip_id = initiator.publish(engine.activity_id, "urn:t/Event", {"n": 1})
        assert gossip_id
        assert on_loop == [True]
    finally:
        for node in nodes:
            node.stop()


def test_stop_is_idempotent():
    node = HttpDisseminator()
    node.start()
    node.stop()
    node.stop()
