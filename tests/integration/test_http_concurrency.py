"""Concurrency smoke test for the real-HTTP binding.

Several senders POST at once over pooled, pipelined keep-alive
connections, and many requests await replies at the same time; this
guards the receive path and reply matching against lost messages at
realistic example-scale rates.
"""

import time

from repro.soap.service import Service, operation
from repro.transport.aio import AsyncHttpNode, shared_loop


def http_node():
    return AsyncHttpNode(loop=shared_loop())


class CountingService(Service):
    def __init__(self):
        super().__init__()
        self.values = []

    @operation("urn:t/Hit")
    def hit(self, context, value):
        self.values.append(value)
        return None


def wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_concurrent_one_way_messages_all_arrive():
    with http_node() as server:
        service = CountingService()
        server.runtime.add_service("/svc", service)
        senders = [http_node() for _ in range(4)]
        try:
            for sender in senders:
                sender.start()
            total = 80
            for index in range(total):
                sender = senders[index % len(senders)]
                sender.runtime.send(
                    f"{server.base_address}/svc", "urn:t/Hit", value=index
                )
            assert wait_for(lambda: len(service.values) == total), (
                f"only {len(service.values)}/{total} arrived"
            )
            assert sorted(service.values) == list(range(total))
        finally:
            for sender in senders:
                sender.stop()


def test_concurrent_request_reply():
    with http_node() as server, http_node() as client:

        class Echo(Service):
            @operation("urn:t/Echo")
            def echo(self, context, value):
                return {"echo": value}

        server.runtime.add_service("/echo", Echo())
        replies = []
        total = 40
        for index in range(total):
            client.runtime.send(
                f"{server.base_address}/echo", "urn:t/Echo", value=index,
                on_reply=lambda context, value: replies.append(value),
            )
        assert wait_for(lambda: len(replies) == total)
        assert sorted(reply["echo"] for reply in replies) == list(range(total))
