"""The asyncio HTTP edge driven from plain blocking code.

``AsyncHttpNode`` is started and stopped through its synchronous facade
(the context manager over the shared loop) and spoken to with
``urllib`` from the caller's thread, the way a non-asyncio client would.
"""

import urllib.error
import urllib.request

import pytest

from repro.transport.aio import AsyncHttpNode, shared_loop


@pytest.fixture
def server():
    with AsyncHttpNode(loop=shared_loop()) as node:
        yield node


def _request(url, data=None, headers=None, method=None):
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    with urllib.request.urlopen(request, timeout=5.0) as response:
        return response.status, dict(response.headers), response.read()


def test_versioned_edge_paths(server):
    status, _, body = _request(f"{server.base_address}/v1/health")
    assert status == 200
    assert b'"status": "ok"' in body
    status, headers, _ = _request(f"{server.base_address}/v1/metrics")
    assert status == 200
    assert "Deprecation" not in headers
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(f"{server.base_address}/metrics")
    assert excinfo.value.code == 404
    excinfo.value.close()


def test_idempotent_replay_over_sync_http(server):
    url = f"{server.base_address}/v1/gossip"
    keyed = {"Idempotency-Key": "pub-7"}
    before = server.hub.wire.idempotent_replays
    status, headers, _ = _request(url, data=b"<x/>", headers=keyed)
    assert status == 202
    status, headers, _ = _request(url, data=b"<x/>", headers=keyed)
    assert status == 200
    assert headers["Idempotent-Replay"] == "true"
    assert server.hub.wire.idempotent_replays == before + 1
