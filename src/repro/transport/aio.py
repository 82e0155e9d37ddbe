"""Asyncio real-network transports: UDP datagrams and keep-alive HTTP.

This module runs the middleware stack over real sockets on **one event
loop**, with no thread per request, so hundreds to thousands of nodes fit
in a single process:

* :class:`AioUdpTransport` -- one datagram socket per node; an envelope
  (or a multi-rumor :class:`~repro.core.batch.GossipBatch` frame up to
  ``max_batch_bytes``) rides verbatim as one datagram.  Addresses look
  like ``udp://127.0.0.1:9001/app``.
* :class:`AioHttpTransport` -- HTTP/1.1 keep-alive client with a
  per-destination connection pool and multiplexed request pipelining
  (many in-flight POSTs share one socket, responses matched in FIFO
  order, the py-unsserv ``multiplex=True`` RPC idiom).
* :class:`AsyncUdpNode` / :class:`AsyncHttpNode` -- the server edges: a
  :class:`~repro.soap.runtime.SoapRuntime` fed by the loop.  The HTTP
  edge speaks the versioned ``/v1/`` node API from
  :mod:`repro.transport.edge` (``POST /v1/gossip``, ``GET /v1/metrics``,
  ``GET /v1/health``, idempotent ingest).

Both transports subclass :class:`~repro.transport.base.ResilientTransport`
and keep its whole observable contract -- bounded retry with backoff,
per-destination circuit breakers, structured
:class:`~repro.transport.base.SendOutcome` listeners, ``inject_fault`` --
but run the orchestration as a coroutine per logical send, so no thread
blocks on a socket.

Sync facade: ``send(address, data)`` stays an ordinary synchronous call.
From outside the loop it schedules the send coroutine thread-safely; from
a loop callback (engine timers under :class:`AioScheduler`, inbound
dispatch) it spawns a task directly.  Existing sync callers --
``GossipLayer``, ``SoapRuntime``, the role classes -- need no changes.
When no loop is supplied, a process-wide background loop thread
(:func:`shared_loop`) hosts everything, so plain scripts and tests can
use the async transports without writing any ``async def``.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.export import prometheus_text
from repro.obs.hub import MetricsHub, default_hub, hub_of
from repro.simnet.metrics import HealthStats
from repro.soap.runtime import SoapRuntime
from repro.transport.base import (
    BreakerPolicy,
    CircuitBreaker,
    ResilientTransport,
    RetryPolicy,
    SendError,
    SendOutcome,
    parse_retry_after,
    split_address,
)
from repro.transport.edge import (
    GOSSIP_PATH,
    HEALTH_PATH,
    IDEMPOTENCY_KEY_HEADER,
    JSON_CONTENT_TYPE,
    METRICS_PATH,
    PROMETHEUS_CONTENT_TYPE,
    EdgeAdmission,
    IdempotencyIndex,
    deprecation_headers,
    health_payload,
    ingest_response,
    obs_response,
    strip_query,
)

#: Largest datagram the loopback/UDP path will attempt (IPv4 ceiling).
MAX_DATAGRAM_BYTES = 65507

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
}


# -- the shared background loop (sync facade) ---------------------------------


class LoopThread:
    """An event loop running on a daemon thread.

    Hosts the async transports for synchronous callers: the loop is
    created eagerly (so its identity is known before the thread spins up)
    and runs forever until :meth:`stop`.
    """

    def __init__(self, name: str = "repro-aio") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self._started.set()
        self.loop.run_forever()

    def start(self) -> "LoopThread":
        if not self._thread.is_alive():
            self._thread.start()
            self._started.wait(5.0)
        return self

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=5.0)


_shared_loop_lock = threading.Lock()
_shared_loop_thread: Optional[LoopThread] = None


def shared_loop() -> asyncio.AbstractEventLoop:
    """The process-wide background loop, started on first use."""
    global _shared_loop_thread
    with _shared_loop_lock:
        if _shared_loop_thread is None:
            _shared_loop_thread = LoopThread().start()
        return _shared_loop_thread.loop


def resolve_loop(loop: Optional[asyncio.AbstractEventLoop]) -> asyncio.AbstractEventLoop:
    """``loop``, else the currently running loop, else :func:`shared_loop`."""
    if loop is not None:
        return loop
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return shared_loop()


def _on_loop(loop: asyncio.AbstractEventLoop) -> bool:
    try:
        return asyncio.get_running_loop() is loop
    except RuntimeError:
        return False


def run_on_loop(loop: asyncio.AbstractEventLoop, coro, timeout: float = 10.0):
    """Run ``coro`` on ``loop`` from a foreign thread and wait for it."""
    if _on_loop(loop):
        raise RuntimeError(
            "run_on_loop called from the loop itself; await the coroutine instead"
        )
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)


# -- timers -------------------------------------------------------------------


class AioScheduler:
    """The engine's :class:`~repro.core.scheduling.Scheduler` over a loop.

    ``now`` is the loop's monotonic clock; ``call_after`` maps to
    ``loop.call_later`` (scheduled thread-safely when invoked off-loop).
    ``close`` flips a flag that silences every outstanding timer --
    orderly node shutdown without having to track handles.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = resolve_loop(loop)
        self._closed = False

    @property
    def now(self) -> float:
        return self._loop.time()

    def call_after(self, delay: float, callback: Callable[[], None]):
        if self._closed:
            return _NullHandle()
        timer = _AioTimer(self)

        def guarded() -> None:
            if not self._closed and not timer.cancelled:
                callback()

        if _on_loop(self._loop):
            timer.bind(self._loop.call_later(delay, guarded))
        else:
            self._loop.call_soon_threadsafe(
                lambda: timer.bind(self._loop.call_later(delay, guarded))
            )
        return timer

    def close(self) -> None:
        """Silence all outstanding timers (node shutdown)."""
        self._closed = True


class _AioTimer:
    """Cancellable wrapper around a (possibly not-yet-created) TimerHandle."""

    __slots__ = ("_scheduler", "_handle", "cancelled")

    def __init__(self, scheduler: AioScheduler) -> None:
        self._scheduler = scheduler
        self._handle: Optional[asyncio.TimerHandle] = None
        self.cancelled = False

    def bind(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        if self.cancelled:
            handle.cancel()

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class _NullHandle:
    __slots__ = ()

    def cancel(self) -> None:
        pass


# -- the async resilient send path --------------------------------------------


class AsyncResilientTransport(ResilientTransport):
    """Shared asyncio send path: the resilient contract, one task per send.

    Subclasses implement the coroutine :meth:`_asend_once` (one delivery
    attempt, raising on failure).  Retry backoff is ``asyncio.sleep`` --
    no thread blocks -- and breaker state, fault hooks and outcome
    listeners are exactly the base class's.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        stats: Optional[HealthStats] = None,
    ) -> None:
        super().__init__(retry=retry, breaker=breaker, rng=rng, stats=stats)
        self.loop = resolve_loop(loop)
        self._tasks: set = set()
        self._queued = 0
        self._queued_lock = threading.Lock()
        self._closed = False
        self.send_errors = 0

    # -- the sync facade ------------------------------------------------------

    def send(self, address: str, data: bytes) -> None:
        """Schedule one resilient send on the loop (callable anywhere).

        Misuse (an address without a scheme) raises ``ValueError`` right
        here, synchronously, matching the base transport; wire failures
        are reported asynchronously through :class:`SendOutcome`.
        """
        split_address(address)  # validate eagerly: misuse is the caller's bug
        if self._closed:
            return  # shutting down: drop, exactly like a lost datagram
        if _on_loop(self.loop):
            self._spawn(address, data)
        else:
            with self._queued_lock:
                self._queued += 1
            self.loop.call_soon_threadsafe(self._spawn_queued, address, data)

    def _spawn_queued(self, address: str, data: bytes) -> None:
        with self._queued_lock:
            self._queued -= 1
        self._spawn(address, data)

    def _spawn(self, address: str, data: bytes) -> None:
        task = self.loop.create_task(self._asend(address, data))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    @property
    def in_flight(self) -> int:
        """Logical sends queued or running (0 = idle)."""
        with self._queued_lock:
            return self._queued + len(self._tasks)

    def drain(self, timeout: float = 10.0) -> bool:
        """Block (off-loop) until every scheduled send finished."""
        deadline = time.monotonic() + timeout
        while self.in_flight:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        return True

    async def adrain(self) -> None:
        """Await (on-loop) until every scheduled send finished."""
        while self._tasks or self._queued:
            pending = list(self._tasks)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            else:
                await asyncio.sleep(0.001)

    def close(self) -> None:
        """Stop accepting sends and release sockets (sync, idempotent)."""
        if self._closed:
            return
        self._closed = True
        if _on_loop(self.loop):
            self.loop.create_task(self._aclose())
        elif self.loop.is_running():
            try:
                run_on_loop(self.loop, self._aclose(), timeout=5.0)
            except Exception:
                pass

    async def aclose(self) -> None:
        self._closed = True
        await self._aclose()

    async def _aclose(self) -> None:
        for task in list(self._tasks):
            task.cancel()

    # -- the coroutine mirror of ResilientTransport._attempt ------------------

    async def _asend(self, address: str, data: bytes) -> None:
        # One token per *logical* send, stable across its retries: the HTTP
        # binding sends it as the Idempotency-Key, so a retried POST whose
        # first attempt actually landed is answered as a replay instead of
        # ingesting twice.  Distinct sends of the same bytes (gossip
        # redundancy) get distinct tokens and are never edge-deduped.
        token = uuid.uuid4().hex
        breaker = self.breaker_for(address)
        if breaker is not None:
            with self._breaker_lock:
                allowed = breaker.allow(self._clock())
            if not allowed:
                self._health_stats.sends_suppressed += 1
                self._emit(
                    SendOutcome(address, ok=False, error="circuit-open", attempts=0)
                )
                return
        attempt = 1
        while True:
            try:
                injected = self._fault_hook(address) if self._fault_hook else None
                if injected is not None:
                    raise SendError(injected, address)
                await self._asend_once(address, data, token)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - every failure is an outcome
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    # Receiver-requested backoff (HTTP 429): breaker and
                    # failure counters are left alone -- the peer is
                    # alive, just saturated (see ResilientTransport.
                    # _attempt_failed, the sync twin of this branch).
                    if attempt <= self._retry.max_retries:
                        self._overload_stats.retry_after_honored += 1
                        self._health_stats.retries += 1
                        await asyncio.sleep(max(0.0, retry_after))
                        attempt += 1
                        continue
                    error = (
                        exc.reason if isinstance(exc, SendError)
                        else type(exc).__name__
                    )
                    self._emit(
                        SendOutcome(
                            address, ok=False, error=error,
                            attempts=attempt, exception=exc,
                        )
                    )
                    return
                self._health_stats.send_failures += 1
                opened = False
                if breaker is not None:
                    with self._breaker_lock:
                        breaker.record_failure(self._clock())
                        opened = breaker.state != CircuitBreaker.CLOSED
                if attempt <= self._retry.max_retries and not opened:
                    self._health_stats.retries += 1
                    await asyncio.sleep(
                        self._retry.delay(attempt, self._resilience_rng)
                    )
                    attempt += 1
                    continue
                error = (
                    exc.reason if isinstance(exc, SendError) else type(exc).__name__
                )
                self._emit(
                    SendOutcome(
                        address, ok=False, error=error,
                        attempts=attempt, exception=exc,
                    )
                )
                return
            else:
                if breaker is not None:
                    with self._breaker_lock:
                        breaker.record_success()
                self._emit(SendOutcome(address, ok=True, attempts=attempt))
                return

    def _emit(self, outcome: SendOutcome) -> None:
        if not outcome.ok:
            # Best-effort one-way messaging, like a lost datagram: gossip
            # redundancy covers losses; the counter records them.
            self.send_errors += 1
        super()._emit(outcome)

    async def _asend_once(self, address: str, data: bytes, token: str) -> None:
        """One delivery attempt; raise on failure.

        ``token`` identifies the logical send (stable across retries);
        bindings with an idempotent edge forward it, datagram bindings
        ignore it.
        """
        raise NotImplementedError


# -- UDP ----------------------------------------------------------------------


class _UdpProtocol(asyncio.DatagramProtocol):
    """Feeds received datagrams to a callback (the node's runtime)."""

    def __init__(self, on_datagram: Optional[Callable[[bytes, Tuple], None]]) -> None:
        self._on_datagram = on_datagram

    def datagram_received(self, data: bytes, addr) -> None:
        if self._on_datagram is not None:
            self._on_datagram(data, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - ICMP noise
        pass


def _udp_socket(host: str, port: int, buffer_bytes: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
    except OSError:  # pragma: no cover - platform caps are advisory
        pass
    sock.setblocking(False)
    sock.bind((host, port))
    return sock


class AioUdpTransport(AsyncResilientTransport):
    """Sends envelope bytes as single datagrams to ``udp://`` addresses.

    One socket serves the whole node: when constructed by
    :class:`AsyncUdpNode` the endpoint is shared with the receive path;
    standalone (client-only) use binds an ephemeral socket on first send.
    Datagrams above ``max_datagram_bytes`` fail with a structured
    ``oversize-datagram`` outcome -- size your engine's
    ``max_batch_bytes`` below the ceiling so batch frames ride verbatim.
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        max_datagram_bytes: int = MAX_DATAGRAM_BYTES,
        buffer_bytes: int = 1 << 22,
    ) -> None:
        super().__init__(loop=loop, retry=retry, breaker=breaker, rng=rng)
        self.max_datagram_bytes = max_datagram_bytes
        self._buffer_bytes = buffer_bytes
        self._endpoint: Optional[asyncio.DatagramTransport] = None
        self._endpoint_lock = asyncio.Lock()
        self._resolved: Dict[str, Tuple[str, int]] = {}

    def bind_endpoint(self, endpoint: asyncio.DatagramTransport) -> None:
        """Adopt an existing datagram endpoint (the owning node's socket)."""
        self._endpoint = endpoint

    async def _ensure_endpoint(self) -> asyncio.DatagramTransport:
        if self._endpoint is not None and not self._endpoint.is_closing():
            return self._endpoint
        async with self._endpoint_lock:
            if self._endpoint is None or self._endpoint.is_closing():
                sock = _udp_socket("127.0.0.1", 0, self._buffer_bytes)
                self._endpoint, _ = await self.loop.create_datagram_endpoint(
                    lambda: _UdpProtocol(None), sock=sock
                )
            return self._endpoint

    def _resolve(self, address: str) -> Tuple[str, int]:
        cached = self._resolved.get(address)
        if cached is not None:
            return cached
        _, authority, _ = split_address(address)
        host, _, port_text = authority.rpartition(":")
        try:
            resolved = (host or "127.0.0.1", int(port_text))
        except ValueError:
            raise ValueError(f"udp address needs host:port: {address!r}") from None
        self._resolved[address] = resolved
        return resolved

    async def _asend_once(self, address: str, data: bytes, token: str) -> None:
        if len(data) > self.max_datagram_bytes:
            raise SendError("oversize-datagram", address)
        target = self._resolve(address)
        endpoint = await self._ensure_endpoint()
        endpoint.sendto(data, target)

    async def _aclose(self) -> None:
        await super()._aclose()
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None


# -- HTTP/1.1 keep-alive client ----------------------------------------------


def _build_request(
    method: str,
    authority: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [
        f"{method} {path or '/'} HTTP/1.1",
        f"Host: {authority}",
        "Connection: keep-alive",
        f"Content-Length: {len(body)}",
    ]
    if body:
        lines.append("Content-Type: text/xml; charset=utf-8")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise SendError("connection-closed")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise SendError("malformed-status-line")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise SendError("connection-closed")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or 0)
    body = await reader.readexactly(length) if length > 0 else b""
    return status, headers, body


class _PipelinedConnection:
    """One keep-alive socket multiplexing many in-flight requests.

    Requests are written as soon as the writer is free (pipelining); a
    reader task matches responses to waiters in FIFO order, which is what
    HTTP/1.1 guarantees.  Any transport error fails every in-flight
    waiter -- the resilient send path above then retries per policy on a
    fresh connection.
    """

    def __init__(self, host: str, port: int, loop: asyncio.AbstractEventLoop) -> None:
        self._host = host
        self._port = port
        self._loop = loop
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._waiters: Deque[asyncio.Future] = deque()
        #: Sockets opened over this slot's lifetime (tests assert reuse).
        self.connects = 0
        self.requests = 0

    @property
    def in_flight(self) -> int:
        return len(self._waiters)

    def _alive(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def _ensure_open(self) -> None:
        if self._alive():
            return
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self.connects += 1
        self._reader_task = self._loop.create_task(self._read_loop())

    async def request(self, raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
        async with self._write_lock:
            await self._ensure_open()
            waiter: asyncio.Future = self._loop.create_future()
            self._waiters.append(waiter)
            self.requests += 1
            self._writer.write(raw)
            await self._writer.drain()
        return await waiter

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                response = await _read_response(self._reader)
                if not self._waiters:
                    break  # unsolicited bytes: drop the connection
                waiter = self._waiters.popleft()
                if not waiter.done():
                    waiter.set_result(response)
                if response[1].get("connection", "").lower() == "close":
                    break
        except asyncio.CancelledError:
            error = SendError("connection-closed")
        except Exception as exc:  # noqa: BLE001 - surfaces via the waiters
            error = exc
        finally:
            self._fail_waiters(error or SendError("connection-closed"))
            self._teardown()

    def _fail_waiters(self, error: BaseException) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(error)

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None

    def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        self._teardown()


class AioHttpTransport(AsyncResilientTransport):
    """POSTs envelope bytes over pooled, pipelined keep-alive connections.

    Destinations are pooled by authority (``host:port``): up to
    ``pool_size`` sockets per peer, each multiplexing up to
    ``max_inflight`` pipelined requests before the pool opens another.
    By default every envelope is POSTed to the versioned ingest resource
    (``/v1/gossip``) -- the WS-Addressing ``To`` header routes it to the
    right service on the receiving node; set ``ingest_path=None`` to POST
    to each address's literal path (the legacy, pre-``/v1/`` contract).
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rng: Optional[random.Random] = None,
        pool_size: int = 2,
        max_inflight: int = 32,
        ingest_path: Optional[str] = GOSSIP_PATH,
    ) -> None:
        super().__init__(loop=loop, retry=retry, breaker=breaker, rng=rng)
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1: {pool_size!r}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight!r}")
        self.pool_size = pool_size
        self.max_inflight = max_inflight
        self.ingest_path = ingest_path
        self._pools: Dict[str, List[_PipelinedConnection]] = {}

    def _connection_for(self, authority: str) -> _PipelinedConnection:
        pool = self._pools.get(authority)
        if pool is None:
            pool = []
            self._pools[authority] = pool
        idle = min(pool, key=lambda conn: conn.in_flight, default=None)
        if idle is not None and (
            idle.in_flight < self.max_inflight or len(pool) >= self.pool_size
        ):
            return idle
        host, _, port_text = authority.rpartition(":")
        connection = _PipelinedConnection(
            host or "127.0.0.1", int(port_text), self.loop
        )
        pool.append(connection)
        return connection

    def pool_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-destination pool counters (tests and the soak report)."""
        return {
            authority: {
                "connections": len(pool),
                "connects": sum(conn.connects for conn in pool),
                "requests": sum(conn.requests for conn in pool),
                "in_flight": sum(conn.in_flight for conn in pool),
            }
            for authority, pool in self._pools.items()
        }

    async def _asend_once(self, address: str, data: bytes, token: str) -> None:
        _, authority, path = split_address(address)
        request_path = self.ingest_path if self.ingest_path is not None else path
        raw = _build_request(
            "POST", authority, request_path or "/", data,
            headers={IDEMPOTENCY_KEY_HEADER: token},
        )
        status, response_headers, _ = await self._connection_for(
            authority
        ).request(raw)
        if status == 429:
            raise SendError(
                "http-429",
                address,
                retry_after=parse_retry_after(
                    response_headers.get("retry-after")
                ),
            )
        if status >= 300:
            raise SendError(f"http-{status}", address)

    async def get(
        self, url: str, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled GET (metrics scraping, health probes)."""
        _, authority, path = split_address(url)
        raw = _build_request("GET", authority, path or "/", headers=headers)
        return await self._connection_for(authority).request(raw)

    async def post(
        self, url: str, body: bytes, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One pooled POST returning the full response (edge tests)."""
        _, authority, path = split_address(url)
        raw = _build_request("POST", authority, path or "/", body, headers=headers)
        return await self._connection_for(authority).request(raw)

    async def _aclose(self) -> None:
        await super()._aclose()
        for pool in self._pools.values():
            for connection in pool:
                connection.close()
        self._pools.clear()


# -- the server edges ---------------------------------------------------------


class _AsyncNodeBase:
    """Shared shell of the asyncio node edges: hub, runtime, lifecycle."""

    scheme = "http"

    def __init__(
        self,
        host: str,
        port: int,
        loop: Optional[asyncio.AbstractEventLoop],
        transport: AsyncResilientTransport,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        self.loop = transport.loop
        self.host = host
        self.port = port
        self.transport = transport
        self.base_address = f"{self.scheme}://{host}:{port}"
        # Per-node hub (chained to the default) -- what GET /v1/metrics
        # serves.  Pass an explicit hub to serve a wider scope instead
        # (the soak harness's metrics edge exports the default hub, i.e.
        # the whole mesh's aggregated stat groups).
        self.hub = hub if hub is not None else MetricsHub(
            parent=default_hub(), name=self.base_address
        )
        self.runtime = SoapRuntime(self.base_address, transport, metrics=self.hub)
        self._started = False

    # Sync lifecycle (foreign thread) -----------------------------------------

    def start(self) -> None:
        """Start serving (from outside the loop; see :meth:`astart`)."""
        if self._started:
            return
        run_on_loop(self.loop, self.astart())

    def stop(self) -> None:
        """Stop serving and close the outbound transport."""
        if not self._started:
            return
        run_on_loop(self.loop, self.astop())

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # Async lifecycle (on the loop) -------------------------------------------

    async def astart(self) -> None:
        raise NotImplementedError

    async def astop(self) -> None:
        raise NotImplementedError

    async def __aenter__(self):
        await self.astart()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.astop()


class AsyncUdpNode(_AsyncNodeBase):
    """A SOAP runtime served over a real UDP socket on the event loop.

    The node's single datagram socket both receives (datagrams feed
    ``runtime.receive``) and sends (shared with its
    :class:`AioUdpTransport`).  Addresses: ``udp://host:port/path``.
    """

    scheme = "udp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        buffer_bytes: int = 1 << 22,
        max_datagram_bytes: int = MAX_DATAGRAM_BYTES,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        transport = AioUdpTransport(
            loop=loop,
            max_datagram_bytes=max_datagram_bytes,
            buffer_bytes=buffer_bytes,
        )
        # Bind eagerly so the node's address is known before start().
        self._sock = _udp_socket(host, port, buffer_bytes)
        bound_host, bound_port = self._sock.getsockname()[:2]
        super().__init__(bound_host, bound_port, loop, transport, hub=hub)
        self.datagrams_received = 0

    async def astart(self) -> None:
        if self._started:
            return
        endpoint, _ = await self.loop.create_datagram_endpoint(
            lambda: _UdpProtocol(self._on_datagram), sock=self._sock
        )
        self.transport.bind_endpoint(endpoint)
        self._started = True

    async def astop(self) -> None:
        if not self._started:
            return
        self._started = False
        await self.transport.aclose()

    def _on_datagram(self, data: bytes, addr) -> None:
        self.datagrams_received += 1
        self.runtime.receive(data, source=f"udp://{addr[0]}:{addr[1]}")


class AsyncHttpNode(_AsyncNodeBase):
    """A SOAP runtime served over asyncio keep-alive HTTP/1.1.

    Speaks the versioned node-edge API (docs/WIRE.md):

    * ``POST /v1/gossip`` -- idempotent envelope ingest (202, or 200 with
      ``Idempotent-Replay: true`` for a retried publish).
    * ``GET /v1/metrics`` -- the node's hub, Prometheus text format.
    * ``GET /v1/health`` -- liveness JSON.

    A POST to a legacy unversioned path still ingests, with a
    ``Deprecation`` header.  A malformed request (an unparseable request
    line or ``Content-Length``, or a line over the reader's 64 KiB limit)
    is answered ``400`` with ``Connection: close`` and counted as
    ``wire.malformed{layer="http"}`` on the node's hub.  Thousands of
    connections share the one event loop; no thread per request.
    """

    scheme = "http"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        idempotency_capacity: int = 65536,
        backlog: int = 512,
        hub: Optional[MetricsHub] = None,
        admission: Optional[EdgeAdmission] = None,
    ) -> None:
        transport = AioHttpTransport(loop=loop)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.setblocking(False)
        bound_host, bound_port = self._listener.getsockname()[:2]
        super().__init__(bound_host, bound_port, loop, transport, hub=hub)
        self.idempotency = IdempotencyIndex(idempotency_capacity)
        #: Optional token-bucket gate on POST ingest (None = admit all).
        self.admission = admission
        self._server: Optional[asyncio.base_events.Server] = None
        self.requests_served = 0

    async def astart(self) -> None:
        if self._started:
            return
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._listener
        )
        self._started = True

    async def astop(self) -> None:
        if not self._started:
            return
        self._started = False
        self._server.close()
        await self._server.wait_closed()
        await self.transport.aclose()

    # -- request handling -----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError:
                    # Broken framing: the stream cannot be resynchronized,
                    # so answer once and drop the connection.
                    self.hub.labeled_counter(
                        "wire.malformed", {"layer": "http"}
                    ).inc()
                    writer.write(self._render_response(400, {}, b"", False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, extra, payload = self._route(method, path, headers, body)
                self.requests_served += 1
                keep_alive = headers.get("connection", "").lower() != "close"
                writer.write(
                    self._render_response(status, extra, payload, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One ``(method, path, headers, body)``, or ``None`` at end of stream.

        Raises:
            ValueError: the request is malformed.  ``readline`` raises it
                too, for a line over the reader's limit.
        """
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line: {request_line[:64]!r}")
        method = parts[0].decode("latin-1").upper()
        path = parts[1].decode("latin-1")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise ValueError(f"malformed Content-Length: {length_text[:64]!r}")
        length = int(length_text)
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, headers, body

    def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        raw_path = path
        path = strip_query(path)
        if method == "POST":
            status, extra, process = ingest_response(
                self.idempotency, headers, body, self.hub.wire,
                admission=self.admission,
                overload_stats=self.hub.overload,
            )
            if path != GOSSIP_PATH:
                extra.update(deprecation_headers(GOSSIP_PATH))
            if process:
                try:
                    self.runtime.receive(body, source=None)
                except Exception:  # noqa: BLE001 - a raising service must
                    # not take the connection (or its pipeline) down.
                    self.runtime.metrics.counter("soap.service-error").inc()
            return status, extra, b""
        if method == "GET":
            if path == HEALTH_PATH:
                payload = health_payload(
                    self.base_address,
                    self.runtime.service_paths(),
                    extra={"requests_served": self.requests_served},
                )
                return 200, {"Content-Type": JSON_CONTENT_TYPE}, payload
            # Observability read models get the raw path: pagination rides
            # in the query string.
            obs = obs_response(hub_of(self.runtime.metrics), raw_path)
            if obs is not None:
                return obs
            if path == METRICS_PATH:
                text = prometheus_text(hub_of(self.runtime.metrics))
                extra = {"Content-Type": PROMETHEUS_CONTENT_TYPE}
                return 200, extra, text.encode("utf-8")
        return 404, {}, b""

    @staticmethod
    def _render_response(
        status: int, headers: Dict[str, str], body: bytes, keep_alive: bool
    ) -> bytes:
        reason = _STATUS_REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
