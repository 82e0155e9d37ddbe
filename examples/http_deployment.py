"""WS-Gossip over real HTTP on localhost.

The exact middleware that runs in the simulator binds here to real
ephemeral-port HTTP servers: a Coordinator, an Initiator, three
Disseminators and one completely unchanged Consumer.  Real SOAP envelopes
travel over real sockets.

Run:  python examples/http_deployment.py
"""

import time

from repro.core.httpdeploy import (
    HttpAppNode,
    HttpCoordinator,
    HttpDisseminator,
    HttpInitiator,
)

ACTION = "urn:stock/tick"


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {what}")


def main() -> None:
    coordinator = HttpCoordinator(seed=1)
    initiator = HttpInitiator(seed=2)
    disseminators = [HttpDisseminator(seed=3 + index) for index in range(3)]
    consumer = HttpAppNode()
    nodes = [coordinator, initiator, *disseminators, consumer]
    try:
        for node in nodes:
            node.start()
        print(f"coordinator listening on {coordinator.node.base_address}")
        for node in (initiator, *disseminators, consumer):
            node.bind(ACTION)
            print(f"app endpoint: {node.app_address}")

        engines = []
        initiator.activate(
            coordinator.activation_address,
            parameters={"fanout": 3, "rounds": 4},
            on_ready=lambda engine: engines.append(engine),
        )
        wait_for(lambda: bool(engines), what="activation")
        activity_id = engines[0].activity_id
        print(f"\nactivity: {activity_id}")

        for node in (*disseminators, consumer):
            node.subscribe(coordinator.subscription_address, activity_id)
        wait_for(
            lambda: len(coordinator.coordinator.activity(activity_id).participants)
            >= 5,
            what="subscriptions",
        )
        initiator.refresh_view(activity_id)
        wait_for(lambda: len(engines[0].view) >= 3, what="peer view")

        gossip_id = initiator.publish(activity_id, ACTION, {"symbol": "SWX",
                                                            "price": 84.2})
        receivers = [*disseminators, consumer]
        wait_for(
            lambda: all(node.has_delivered(gossip_id) for node in receivers),
            what="full delivery",
        )
        print("\nevery node received the tick over real HTTP:")
        for node in receivers:
            print(f"  {node.app_address}: {node.deliveries[-1]['value']}")
        print("\nconsumer stack was completely unchanged -- it just saw a "
              "plain SOAP invocation.")
    finally:
        for node in nodes:
            node.stop()


if __name__ == "__main__":
    main()
