"""Real-HTTP deployment of the WS-Gossip roles.

The same middleware classes that run in the simulator bind here to real
localhost HTTP servers and wall-clock timers -- demonstrating the stack is
transport-agnostic.  Used by the HTTP integration test and the
``examples/http_deployment.py`` demo.

Every role serves an :class:`~repro.transport.aio.AsyncHttpNode` on the
process-wide :func:`~repro.transport.aio.shared_loop`, with engine timers
on an :class:`~repro.transport.aio.AioScheduler` over the same loop.  The
facade methods callers use from their own thread (``activate``,
``publish``, ``subscribe``, ``refresh_view``) hop onto the loop with
:func:`~repro.transport.aio.run_on_loop`, so all runtime and engine state
lives on the loop thread, exactly as it lives on one thread under the
simulator.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.core.coordination import GossipCoordinationProtocol
from repro.core.engine import PROTOCOL_INITIATOR, GossipEngine
from repro.core.handler import GossipLayer
from repro.core.message import GossipHeader
from repro.core.params import GossipParams
from repro.core.service import GossipService
from repro.core.subscription import SUBSCRIBE_ACTION, SubscriptionService
from repro.soap import namespaces as ns
from repro.soap.service import Service
from repro.transport.aio import (
    AioScheduler,
    AsyncHttpNode,
    run_on_loop,
    shared_loop,
)
from repro.wscoord.activation import CREATE_ACTION, ActivationService
from repro.wscoord.context import CoordinationContext
from repro.wscoord.coordinator import Coordinator
from repro.wscoord.registration import RegistrationService

APP_PATH = "/app"


def _on_node_loop(node: AsyncHttpNode, function: Callable, *args, **kwargs) -> Any:
    """Run ``function(*args, **kwargs)`` on ``node``'s loop thread and wait."""

    async def call() -> Any:
        return function(*args, **kwargs)

    return run_on_loop(node.loop, call())


class HttpCoordinator:
    """Coordinator role over HTTP."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, seed: int = 0) -> None:
        self.node = AsyncHttpNode(host, port, loop=shared_loop())
        self.coordinator = Coordinator(
            lambda activity_id: self.node.runtime.epr(
                "/registration", ActivityId=activity_id
            )
        )
        self.coordinator.add_protocol(
            GossipCoordinationProtocol(rng=random.Random(seed))
        )
        self.node.runtime.add_service("/activation", ActivationService(self.coordinator))
        self.node.runtime.add_service(
            "/registration", RegistrationService(self.coordinator)
        )
        self.node.runtime.add_service(
            "/subscription", SubscriptionService(self.coordinator)
        )

    @property
    def activation_address(self) -> str:
        return self.node.runtime.address_of("/activation")

    @property
    def subscription_address(self) -> str:
        return self.node.runtime.address_of("/subscription")

    def start(self) -> None:
        """Begin serving the coordinator endpoints."""
        self.node.start()

    def stop(self) -> None:
        """Shut the coordinator's HTTP server down."""
        self.node.stop()


class HttpAppNode:
    """Consumer role over HTTP: plain stack plus a recording app service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.node = AsyncHttpNode(host, port, loop=shared_loop())
        self.app_service = Service()
        self.node.runtime.add_service(APP_PATH, self.app_service)
        self.deliveries: List[Dict[str, Any]] = []

    @property
    def app_address(self) -> str:
        return self.node.runtime.address_of(APP_PATH)

    def bind(self, action: str, callback: Optional[Callable] = None) -> None:
        """Accept invocations with ``action``, recording each delivery."""
        def handle(context, value):
            header = GossipHeader.from_envelope(context.envelope)
            self.deliveries.append(
                {
                    "value": value,
                    "gossip_id": header.message_id if header else None,
                }
            )
            if callback is not None:
                callback(context, value)
            return None

        self.app_service.add_operation(action, handle)

    def has_delivered(self, gossip_id: str) -> bool:
        """True when this node received the data item at least once."""
        return any(entry["gossip_id"] == gossip_id for entry in self.deliveries)

    def subscribe(self, subscription_address: str, activity_id: str) -> None:
        """Subscribe this node's app endpoint to an activity."""
        _on_node_loop(
            self.node,
            self.node.runtime.send,
            subscription_address,
            SUBSCRIBE_ACTION,
            value={"activity": activity_id, "participant": self.app_address},
        )

    def start(self) -> None:
        """Begin serving this node."""
        self.node.start()

    def stop(self) -> None:
        """Shut this node's HTTP server down."""
        self.node.stop()


class HttpDisseminator(HttpAppNode):
    """Disseminator role over HTTP: app node plus the gossip layer."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        params: Optional[GossipParams] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.scheduler = AioScheduler(self.node.loop)
        self.gossip_layer = GossipLayer(
            runtime=self.node.runtime,
            scheduler=self.scheduler,
            app_address=self.app_address,
            rng=random.Random(seed),
            default_params=params,
        )
        self.node.runtime.chain.add_first(self.gossip_layer)
        self.node.runtime.add_service("/gossip", GossipService(self.gossip_layer))

    def refresh_view(self, activity_id: str) -> None:
        """Re-register with the coordinator for a fresh peer sample."""
        _on_node_loop(
            self.node,
            lambda: self.gossip_layer.engine_for(activity_id).refresh_view(),
        )

    def stop(self) -> None:
        """Cancel gossip timers and shut the server down."""
        self.scheduler.close()
        super().stop()


class HttpInitiator(HttpDisseminator):
    """Initiator role over HTTP."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.activities: Dict[str, GossipEngine] = {}

    def activate(
        self,
        activation_address: str,
        parameters: Optional[Dict[str, Any]] = None,
        on_ready: Optional[Callable[[GossipEngine], None]] = None,
    ) -> None:
        """Create a gossip activity at the coordinator and join it."""
        def handle_context(reply_context, value):
            context = CoordinationContext.from_element(reply_context.envelope.body)
            engine = self.gossip_layer.join(context, protocol=PROTOCOL_INITIATOR)
            self.activities[context.identifier] = engine
            if on_ready is not None:
                on_ready(engine)

        _on_node_loop(
            self.node,
            self.node.runtime.send,
            activation_address,
            CREATE_ACTION,
            value={
                "coordination_type": ns.WSGOSSIP_COORD,
                "parameters": parameters or {},
            },
            on_reply=handle_context,
        )

    def publish(self, activity_id: str, action: str, value: Any) -> str:
        """Disseminate one invocation; returns its gossip id."""
        return _on_node_loop(
            self.node, self.activities[activity_id].publish, action, value
        )
