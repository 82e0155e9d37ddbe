"""The benchmark's workloads, driven through the program's public entry
points only: ``GossipConfig(...).build()``, ``GossipGroup.setup/publish/
run_for`` and ``AsyncGossipMesh.astart/apublish``.

Each workload function runs one measured pass and returns a
:class:`PassResult`; ``run.py`` repeats passes, checks them and reports.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from measure import OperationLedger, conditioned_schedule, due_latencies, lateness, percentile
from tracer import SpanRecorder

from repro import GossipConfig
from repro.core.aiodeploy import AsyncGossipMesh, soak_params
from repro.obs.hub import default_hub
from repro.transport.aio import AioHttpTransport, AsyncHttpNode, AsyncResilientTransport
from repro.workloads import StockFeed

#: sim-push-burst: bench_perf_core's N=1000 row (batched push), run as
#: push-pull with one pull round late in the drain.  Pure push misses
#: ~e^-fanout of its pairs by design; the pull round at 8 s repairs them,
#: so every pair is delivered and no operation fails.
BURST_NODES = 1000
BURST_PARAMS = {
    "style": "push-pull",
    "period": 8.0,
    "fanout": 6,
    "rounds": 9,
    "peer_sample_size": 14,
    "max_batch_rumors": 64,
}
BURST_RUMORS = 50
BURST_DRAIN_S = 12.0

#: sim-pushpull-default: the unbatched default wire, full SOAP pulls.
PUSHPULL_NODES = 200
PUSHPULL_PARAMS = {
    "style": "push-pull",
    "fanout": 4,
    "rounds": 6,
    "period": 0.5,
    "jitter": 0.3,
    "peer_sample_size": 12,
}
PUSHPULL_RATE = 10.0
PUSHPULL_WINDOW_S = 2.0
PUSHPULL_DRAIN_S = 5.0
#: Latency percentiles are medians over windows of this many consecutive
#: ticks (~400 pairs, so at least ten lie beyond each window's p95).
PUSHPULL_WINDOW_TICKS = 2

#: live-udp-steady: loopback UDP, one event loop.
LIVE_NODES = 50
LIVE_VIEW = 8
LIVE_RATE = 8.0
LIVE_LIMIT_S = 1.0
LIVE_SETTLE_S = 2.0
SCRAPE_PERIOD_S = 2.0
#: Live latency percentiles are medians over windows of this many ticks
#: (~2 s at 8 ticks/s).
LIVE_WINDOW_TICKS = 16
WARMUP_CHUNK = 64
WARMUP_TIMEOUT_S = 150.0

#: Floor on the share of pairs each workload must eventually deliver.
DELIVERED_FLOOR = 0.99


@dataclass
class PassResult:
    """One measured pass of a workload."""

    setup_s: float
    cpu_s: float
    wall_s: float
    deliveries: int
    #: Delivery latencies, grouped by windows of consecutive publishes: the
    #: whole burst, ``PUSHPULL_WINDOW_TICKS`` or ``LIVE_WINDOW_TICKS``.
    latency_groups_ms: List[List[float]]
    ops: OperationLedger
    wire_msgs: int
    wire_bytes: int
    #: Outputs that must repeat exactly for one seed (simulator only).
    fingerprint: Optional[Tuple] = None
    #: Correctness-check failures, as messages.
    failures: List[str] = field(default_factory=list)
    #: Figures the per-layer ledger needs (see ``layers.layer_metrics``).
    facts: Dict[str, float] = field(default_factory=dict)


def _wire_stats() -> Tuple[int, int]:
    wire = default_hub().wire
    return wire.serialize_count, wire.serialize_reused


class _OutcomeTally:
    """Outcome listener: counts failed sends and retry attempts."""

    def __init__(self) -> None:
        self.failures = 0
        self.retries = 0

    def __call__(self, outcome) -> None:
        if not outcome.ok:
            self.failures += 1
        self.retries += max(0, outcome.attempts - 1)


def _tick_schedule(seed: int, rate: float, window: float):
    """``rate * window`` seeded stock ticks with Poisson arrival times
    conditioned on that count (see ``measure.conditioned_schedule``)."""
    feed = StockFeed(rate=rate, seed=seed)
    ticks = list(itertools.islice(feed.ticks(float("inf")), round(rate * window)))
    due = conditioned_schedule([tick.time for tick in ticks], window)
    return list(zip(due, (tick.to_value() for tick in ticks)))


# -- simulator ------------------------------------------------------------------


#: The simulator advances in slices of this much simulated time (the link
#: latency), so each delivery can be stamped with the wall-clock time at
#: which the simulation computed it.
SIM_SLICE_S = 0.001


class _SimClock:
    """Maps simulated instants to the wall-clock time they were computed."""

    def __init__(self) -> None:
        self._sim: List[float] = []
        self._wall: List[float] = []

    def advance(self, group, duration: float) -> None:
        """``group.run_for(duration)``, one slice at a time."""
        end = group.sim.now + duration
        while group.sim.now < end:
            group.run_for(min(SIM_SLICE_S, end - group.sim.now))
            self._sim.append(group.sim.now)
            self._wall.append(time.perf_counter())

    def wall_at(self, sim_time: float) -> float:
        """Wall time by which the simulation had passed ``sim_time``."""
        return self._wall[bisect.bisect_left(self._sim, sim_time)]


def _sim_pass(
    nodes: int,
    params: dict,
    seed: int,
    setup: Callable,
    drive: Callable,
    window: int,
    recorder: Optional[SpanRecorder],
) -> PassResult:
    """Build, set up, then time ``drive(group, clock, ledger)`` on one group.

    ``drive`` publishes and advances the simulator through ``clock``; it
    returns ``[(gossip id, simulated publish time, wall publish time)]``.
    Latency is wall-clock: from the publish call to the moment the
    simulation computed each delivery, grouped by ``window`` consecutive
    publishes.  Simulated latency percentiles are part of the fingerprint
    that must repeat exactly.
    """
    started = time.perf_counter()
    group = GossipConfig(
        n_disseminators=nodes - 1, seed=seed, params=params, auto_tune=False
    ).build()
    setup(group)
    setup_s = time.perf_counter() - started

    tally = _OutcomeTally()
    if recorder is not None:
        for node in group.all_nodes():
            node.runtime.transport.add_outcome_listener(tally)
        recorder.clear()
    sent_before = group.metrics.counter("net.sent").value
    bytes_before = group.metrics.counter("net.bytes").value
    events_before = group.sim.events_executed
    serialized_before, reused_before = _wire_stats()
    ledger = OperationLedger()
    clock = _SimClock()

    cpu_started, wall_started = time.process_time(), time.perf_counter()
    published = drive(group, clock, ledger)
    cpu_s = time.process_time() - cpu_started
    wall_s = time.perf_counter() - wall_started

    receivers = nodes - 1
    groups_ms: List[List[float]] = []
    simulated_ms: List[float] = []
    for index, (gossip_id, sim_published, wall_published) in enumerate(published):
        delivered = group.delivery_times(gossip_id)
        ledger.record(receivers, delivered)
        if index % window == 0:
            groups_ms.append([])
        for when in delivered:
            simulated_ms.append((when - sim_published) * 1000.0)
            groups_ms[-1].append((clock.wall_at(when) - wall_published) * 1000.0)
    net_sent = group.metrics.counter("net.sent").value - sent_before
    net_bytes = group.metrics.counter("net.bytes").value - bytes_before
    serialized_after, reused_after = _wire_stats()
    deliveries = len(simulated_ms)
    result = PassResult(
        setup_s=setup_s,
        cpu_s=cpu_s,
        wall_s=wall_s,
        deliveries=deliveries,
        latency_groups_ms=groups_ms,
        ops=ledger,
        wire_msgs=net_sent,
        wire_bytes=net_bytes,
        facts={
            "events": group.sim.events_executed - events_before,
            "net_sent": net_sent,
            "net_bytes": net_bytes,
            "serialize_count": serialized_after - serialized_before,
            "serialize_reused": reused_after - reused_before,
            "send_failures": tally.failures,
            "send_retries": tally.retries,
        },
    )
    if simulated_ms:
        result.fingerprint = (
            deliveries,
            net_sent,
            net_bytes,
            percentile(simulated_ms, 50),
            percentile(simulated_ms, 95),
            percentile(simulated_ms, 99),
        )
    if ledger.delivered_fraction < DELIVERED_FLOOR:
        result.failures.append(
            f"delivered {ledger.delivered_fraction:.4f} of pairs, "
            f"below {DELIVERED_FLOOR}"
        )
    return result


def _publish(group, value, receivers: int, ledger: OperationLedger, published: list):
    sim_now, wall_now = group.sim.now, time.perf_counter()
    try:
        published.append((group.publish(value), sim_now, wall_now))
    except Exception as error:  # a failed publish fails all of its pairs
        ledger.record_raised(receivers)
        print(f"publish raised: {error!r}")


def sim_push_burst(seed: int, recorder: Optional[SpanRecorder] = None) -> PassResult:
    """50 rumors in one burst over N=1000 batched push, then a 12 s drain
    with one pull round."""

    def drive(group, clock, ledger):
        published: list = []
        for index in range(BURST_RUMORS):
            _publish(group, {"tick": index}, BURST_NODES - 1, ledger, published)
        clock.advance(group, BURST_DRAIN_S)
        return published

    return _sim_pass(
        BURST_NODES,
        BURST_PARAMS,
        seed,
        lambda group: group.setup(settle=1.0, eager_join=True),
        drive,
        BURST_RUMORS,
        recorder,
    )


def sim_pushpull_default(seed: int, recorder: Optional[SpanRecorder] = None) -> PassResult:
    """Seeded ticks published at their simulated due times over the
    unbatched push-pull default, then a 5 s drain."""
    schedule = _tick_schedule(seed, PUSHPULL_RATE, PUSHPULL_WINDOW_S)

    def drive(group, clock, ledger):
        published: list = []
        start = group.sim.now
        for due, value in schedule:
            clock.advance(group, start + due - group.sim.now)
            _publish(group, value, PUSHPULL_NODES - 1, ledger, published)
        clock.advance(group, PUSHPULL_DRAIN_S)
        return published

    return _sim_pass(
        PUSHPULL_NODES,
        PUSHPULL_PARAMS,
        seed,
        lambda group: group.setup(settle=1.0),
        drive,
        PUSHPULL_WINDOW_TICKS,
        recorder,
    )


# -- live mesh --------------------------------------------------------------------


class _SendCounter:
    """Counts datagrams and bytes handed to the live transports' public
    ``send`` (installed for every live pass, traced or not)."""

    def __init__(self) -> None:
        self.calls = 0
        self.bytes = 0
        self._original = None

    def __enter__(self) -> "_SendCounter":
        original = self._original = AsyncResilientTransport.send
        counter = self

        def send(transport, address, data):
            counter.calls += 1
            counter.bytes += len(data)
            return original(transport, address, data)

        AsyncResilientTransport.send = send
        return self

    def __exit__(self, *exc_info) -> None:
        AsyncResilientTransport.send = self._original


async def _lag_probe(loop, lags: List[float], interval: float = 0.01) -> None:
    """How late the loop wakes a 10 ms sleeper: queueing on the loop."""
    while True:
        expected = loop.time() + interval
        await asyncio.sleep(interval)
        lags.append(loop.time() - expected)


async def _scrape_loop(scraper, url: str, scrapes: List[Tuple[float, int]]) -> None:
    """An operator's ``GET /v1/metrics`` every ``SCRAPE_PERIOD_S``."""
    loop = asyncio.get_running_loop()
    while True:
        await asyncio.sleep(SCRAPE_PERIOD_S)
        started = loop.time()
        status, _, body = await scraper.get(url)
        if status != 200 or not body:
            raise RuntimeError(f"/v1/metrics scrape failed with status {status}")
        scrapes.append((loop.time() - started, len(body)))


async def _warm_up(mesh, seed: int, failures: List[str]) -> None:
    """Publish ``buffer_capacity`` ticks, then wait until every node
    holds them all or deliveries stop progressing with outboxes empty."""
    capacity = mesh.params.buffer_capacity
    rng = random.Random(seed + 2)
    feed = StockFeed(rate=LIVE_RATE, seed=seed + 3)
    published = 0
    for tick in feed.ticks(float("inf")):
        await mesh.apublish(tick.to_value(), rng.randrange(mesh.population))
        published += 1
        if published == capacity:
            break
        if published % WARMUP_CHUNK == 0:
            await asyncio.sleep(0.05)
    engines = [
        node.gossip_layer.engine_for(mesh.context.identifier) for node in mesh.nodes
    ]
    target = capacity * (mesh.population - 1)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + WARMUP_TIMEOUT_S
    last, stalled_since = -1, loop.time()
    while True:
        await asyncio.sleep(0.25)
        delivered = sum(len(node.delivered) for node in mesh.nodes)
        if delivered >= target:
            break
        if delivered != last:
            last, stalled_since = delivered, loop.time()
        drained = all(engine.outbox_depth == 0 for engine in engines)
        if drained and loop.time() - stalled_since >= 1.0:
            break
        if loop.time() > deadline:
            failures.append(f"warm-up did not drain within {WARMUP_TIMEOUT_S} s")
            return
    retained = sum(len(engine.store) for engine in engines) / len(engines)
    if retained != capacity:
        failures.append(
            f"warm-up left {retained:.1f} retained ids per node, not {capacity}"
        )


async def _live_pass(
    seed: int, window: float, recorder: Optional[SpanRecorder], probe: bool
) -> PassResult:
    loop = asyncio.get_running_loop()
    failures: List[str] = []
    started = time.perf_counter()
    mesh = AsyncGossipMesh(
        LIVE_NODES,
        transport="udp",
        params=soak_params("udp", period=0.5),
        view_size=LIVE_VIEW,
        seed=seed,
    )
    await mesh.astart()
    # The warm-up costs most of a minute, so set-up runs once per pass.
    await _warm_up(mesh, seed, failures)
    setup_s = time.perf_counter() - started

    metrics_edge = AsyncHttpNode(hub=default_hub())
    await metrics_edge.astart()
    scraper = AioHttpTransport()
    tally = _OutcomeTally()
    if recorder is not None:
        for node in mesh.nodes:
            node.runtime.transport.add_outcome_listener(tally)
        recorder.clear()

    schedule = _tick_schedule(seed, LIVE_RATE, window)
    rng = random.Random(seed + 1)
    ledger = OperationLedger(limit=LIVE_LIMIT_S)
    due: Dict[str, float] = {}
    publisher_of: Dict[str, int] = {}
    sent_at: List[float] = []
    scrapes: List[Tuple[float, int]] = []
    lags: List[float] = []
    serialized_before, reused_before = _wire_stats()
    tasks = [
        loop.create_task(
            _scrape_loop(scraper, f"{metrics_edge.base_address}/v1/metrics", scrapes)
        )
    ]
    if probe:
        tasks.append(loop.create_task(_lag_probe(loop, lags)))
    try:
        with _SendCounter() as sends:
            cpu_started, wall_started = time.process_time(), time.perf_counter()
            start = loop.time()
            for offset, value in schedule:
                when = start + offset
                delay = when - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent_at.append(loop.time())
                publisher = rng.randrange(LIVE_NODES)
                try:
                    gossip_id = await mesh.apublish(value, publisher)
                except Exception as error:  # fails all of its pairs
                    ledger.record_raised(LIVE_NODES - 1)
                    print(f"publish raised: {error!r}")
                    continue
                due[gossip_id] = when
                publisher_of[gossip_id] = publisher
            await asyncio.sleep(LIVE_SETTLE_S)
            cpu_s = time.process_time() - cpu_started
            wall_s = time.perf_counter() - wall_started
        for task in tasks:
            if task.done():
                task.result()  # surface a failed scrape
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        await scraper.aclose()
        await metrics_edge.astop()
        await mesh.astop()
    serialized_after, reused_after = _wire_stats()

    groups_ms: List[List[float]] = []
    eventual = 0
    for index, (gossip_id, when) in enumerate(due.items()):
        publisher = publisher_of[gossip_id]
        delivered = due_latencies(
            {gossip_id: when},
            (
                (gossip_id, node.delivered[gossip_id])
                for rank, node in enumerate(mesh.nodes)
                if rank != publisher and gossip_id in node.delivered
            ),
        )
        ledger.record(LIVE_NODES - 1, delivered)
        eventual += len(delivered)
        if index % LIVE_WINDOW_TICKS == 0:
            groups_ms.append([])
        groups_ms[-1].extend(latency * 1000.0 for latency in delivered)
    eventual_fraction = eventual / max(1, ledger.attempted)
    if eventual_fraction < DELIVERED_FLOOR:
        failures.append(
            f"delivered {eventual_fraction:.4f} of pairs within "
            f"{LIVE_SETTLE_S} s of the last tick, below {DELIVERED_FLOOR}"
        )
    if not scrapes:
        failures.append("no /v1/metrics scrape completed")
    late_ms = [late * 1000.0 for late in lateness(
        [start + offset for offset, _ in schedule], sent_at
    )]
    lags_ms = [lag * 1000.0 for lag in lags]
    return PassResult(
        setup_s=setup_s,
        cpu_s=cpu_s,
        wall_s=wall_s,
        deliveries=eventual,
        latency_groups_ms=groups_ms,
        ops=ledger,
        wire_msgs=sends.calls,
        wire_bytes=sends.bytes,
        failures=failures,
        facts={
            "events": 0,
            "net_sent": 0,
            "net_bytes": 0,
            "serialize_count": serialized_after - serialized_before,
            "serialize_reused": reused_after - reused_before,
            "send_failures": tally.failures,
            "send_retries": tally.retries,
            "loop_busy_ratio": cpu_s / wall_s,
            "loop_lag_p99_ms": percentile(lags_ms, 99) if lags_ms else 0.0,
            "loop_stall_max_ms": max(lags_ms, default=0.0),
            "scrape_calls": len(scrapes),
            "scrape_ms_p50": percentile([s * 1000.0 for s, _ in scrapes], 50)
            if scrapes else 0.0,
            "scrape_bytes": sum(size for _, size in scrapes),
            "gen_late_p99_ms": percentile(late_ms, 99) if late_ms else 0.0,
            "gen_late_max_ms": max(late_ms, default=0.0),
        },
    )


def live_udp_steady(
    seed: int, window: float, recorder: Optional[SpanRecorder] = None, probe: bool = False
) -> PassResult:
    """A 50-node loopback UDP mesh, warmed until every store is full, under
    an open loop of ticks for ``window`` seconds."""
    return asyncio.run(_live_pass(seed, window, recorder, probe))
