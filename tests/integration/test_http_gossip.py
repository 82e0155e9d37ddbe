"""End-to-end WS-Gossip over real localhost HTTP.

Same middleware, different binding: coordinator, initiator, two
disseminators and an unchanged consumer all running real HTTP servers on
ephemeral ports, wall-clock timers, and actual SOAP-over-HTTP POSTs.
"""

import time

import pytest

from repro.core.httpdeploy import (
    HttpAppNode,
    HttpCoordinator,
    HttpDisseminator,
    HttpInitiator,
)

ACTION = "urn:stock/tick"


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def deployment():
    coordinator = HttpCoordinator(seed=1)
    initiator = HttpInitiator(seed=2)
    disseminators = [HttpDisseminator(seed=3 + index) for index in range(2)]
    consumer = HttpAppNode()
    nodes = [coordinator, initiator, *disseminators, consumer]
    for node in nodes:
        node.start()
    for node in (initiator, *disseminators, consumer):
        node.bind(ACTION)
    yield coordinator, initiator, disseminators, consumer
    for node in nodes:
        node.stop()


def test_figure1_over_real_http(deployment):
    coordinator, initiator, disseminators, consumer = deployment

    engines = []
    initiator.activate(
        coordinator.activation_address,
        parameters={"fanout": 3, "rounds": 4},
        on_ready=lambda engine: engines.append(engine),
    )
    assert wait_for(lambda: bool(engines)), "activation over HTTP failed"
    activity_id = engines[0].activity_id

    for node in (*disseminators, consumer):
        node.subscribe(coordinator.subscription_address, activity_id)
    assert wait_for(
        lambda: len(
            coordinator.coordinator.activity(activity_id).participants
        ) >= 4
    ), "subscriptions did not reach the coordinator"

    initiator.refresh_view(activity_id)
    assert wait_for(lambda: len(engines[0].view) >= 3), "view refresh failed"

    gossip_id = initiator.publish(activity_id, ACTION, {"symbol": "SWX", "px": 4.2})
    receivers = [*disseminators, consumer]
    assert wait_for(
        lambda: all(node.has_delivered(gossip_id) for node in receivers)
    ), "not all HTTP nodes received the gossiped op"
