"""The layer vocabulary: which program functions each layer's spans wrap,
and how the traced run turns spans and counts into per-layer metrics.

Layers are named after ``src/repro`` modules.  Each span wraps a public
function at a layer boundary; two private engine callbacks
(``_flush_outbox``, ``_periodic_round``) are wrapped as well because the
simulator and the event loop call them directly from timers -- without
them their cost would land in the ``simnet`` kernel's self time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from tracer import Instrumentation, SpanRecorder


def _count_bytes(recorder, args, result) -> None:
    recorder.counts["transport.send_bytes"] += len(args[2])


def _gate_outcome(recorder, args, result) -> None:
    if result is False:
        recorder.counts["core.handler.gate_drops"] += 1
    recorder.sample_max("core.handler.ingest_pressure", args[0].ingest_pressure())


def _batch_size(recorder, args, result) -> None:
    recorder.counts["core.batch.rumors"] += len(args[2])


def _splice_outcome(recorder, args, result) -> None:
    if result is None:
        recorder.counts["core.message.splice_declines"] += 1


def _gossip_outcome(recorder, args, result) -> None:
    if result:
        recorder.counts["core.engine.fresh"] += 1


def _outbox_depth(recorder, args) -> None:
    recorder.sample_max("core.engine.outbox_depth", args[0].outbox_depth)


def _digest_size(recorder, args, result) -> None:
    recorder.counts["core.buffer.digest_ids"] += len(result)


#: (kind, target, span name, before hook, after hook)
PROBES = [
    ("method", "repro.simnet.events:Simulator.run_until", "simnet.run_until", None, None),
    ("method", "repro.simnet.network:Network.send", "simnet.send", None, None),
    ("method", "repro.simnet.process:Process.on_message", "simnet.on_message", None, None),
    ("method", "repro.transport.base:ResilientTransport.send", "transport.send", None, _count_bytes),
    ("method", "repro.transport.aio:_UdpProtocol.datagram_received", "transport.datagram_in", None, None),
    ("method", "repro.soap.runtime:SoapRuntime.receive", "soap.receive", None, None),
    ("method", "repro.soap.runtime:SoapRuntime.send", "soap.send", None, None),
    ("method", "repro.soap.runtime:SoapRuntime.send_bytes", "soap.send_bytes", None, None),
    ("method", "repro.soap.envelope:Envelope.from_bytes", "soap.parse", None, None),
    ("method", "repro.soap.envelope:Envelope.to_bytes", "soap.encode", None, None),
    ("method", "repro.soap.handler:HandlerChain.run_inbound", "soap.chain_in", None, None),
    ("method", "repro.soap.handler:HandlerChain.run_outbound", "soap.chain_out", None, None),
    ("method", "repro.core.handler:GossipLayer.preparse_gate", "core.handler.gate", None, _gate_outcome),
    ("method", "repro.core.handler:GossipLayer.on_inbound", "core.handler.on_inbound", None, None),
    ("function", "repro.core.batch:build_batch", "core.batch.build", None, _batch_size),
    ("function", "repro.core.batch:split_batch", "core.batch.split", None, None),
    ("function", "repro.core.batch:scan_batch_control", "core.batch.control_scan", None, None),
    ("function", "repro.core.message:scan_gossip_message_id", "core.message.scan", None, None),
    ("function", "repro.core.message:scan_gossip_message_ids", "core.message.scan", None, None),
    ("function", "repro.core.message:splice_hops", "core.message.splice", None, _splice_outcome),
    ("function", "repro.core.message:splice_forward", "core.message.splice", None, _splice_outcome),
    ("method", "repro.core.engine:GossipEngine.publish", "core.engine.publish", None, None),
    ("method", "repro.core.engine:GossipEngine.on_gossip", "core.engine.on_gossip", None, _gossip_outcome),
    ("method", "repro.core.engine:GossipEngine.on_duplicate_preparse", "core.engine.dup_preparse", None, None),
    ("method", "repro.core.engine:GossipEngine.serve_pull", "core.engine.serve_pull", None, None),
    ("method", "repro.core.engine:GossipEngine.on_batch_control", "core.engine.batch_control", None, None),
    ("method", "repro.core.engine:GossipEngine._flush_outbox", "core.engine.flush", _outbox_depth, None),
    ("method", "repro.core.engine:GossipEngine._periodic_round", "core.engine.round", None, None),
    ("method", "repro.core.buffer:MessageStore.digest", "core.buffer.digest", None, _digest_size),
    ("method", "repro.core.buffer:MessageStore.missing_from", "core.buffer.missing_from", None, None),
    ("method", "repro.core.buffer:MessageStore.not_in", "core.buffer.not_in", None, None),
    ("method", "repro.obs.hub:NodeScope.counter", "obs.node_counter", None, None),
    ("method", "repro.obs.hub:MetricsHub.labeled_counter", "obs.labeled_counter", None, None),
    ("method", "repro.simnet.metrics:MetricsRegistry.counter", "obs.registry_counter", None, None),
]


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every probe target; the caller uninstalls when done."""
    # Load every module a workload builds from, so subclasses that
    # override a wrapped method are found and wrapped too.
    import repro.core.aiodeploy  # noqa: F401
    import repro.core.api  # noqa: F401
    import repro.transport.aio  # noqa: F401

    instrumentation = Instrumentation(recorder)
    for kind, target, name, before, after in PROBES:
        getattr(instrumentation, kind)(target, name, before, after)
    return instrumentation


def _ms(ns: int) -> float:
    return ns / 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, facts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``facts`` holds what the harness measured around the pass: deliveries,
    CPU seconds, simulator events and network counters, wire-stat deltas,
    send outcomes, and the timing figures of the untraced pass of the
    same invocation (loop lag, generator lateness, scrapes, p99).
    """
    totals, root_ns = recorder.totals()

    def calls(*names: str) -> int:
        return sum(totals[name].calls for name in names if name in totals)

    def self_ms(*names: str) -> float:
        return _ms(sum(totals[name].self_ns for name in names if name in totals))

    def prefixed_self_ms(prefix: str) -> float:
        return self_ms(*(name for name in totals if name.startswith(prefix)))

    counts = recorder.counts
    deliveries = facts["deliveries"]
    received = calls("soap.receive")
    encodes = facts["serialize_count"] + facts["serialize_reused"]
    gate_calls = calls("core.handler.gate")
    on_gossip = calls("core.engine.on_gossip")
    splices = calls("core.message.splice")
    builds = calls("core.batch.build")
    digests = calls("core.buffer.digest")
    counter_calls = recorder.outermost_calls("obs.")
    cpu_ns = facts["cpu_s"] * 1e9
    return {
        "simnet.events": facts["events"],
        "simnet.events_per_delivery": _ratio(facts["events"], deliveries),
        "simnet.self_ms": prefixed_self_ms("simnet."),
        "simnet.net_sent": facts["net_sent"],
        "simnet.net_bytes": facts["net_bytes"],
        "transport.send_calls": calls("transport.send"),
        "transport.send_bytes": counts["transport.send_bytes"],
        "transport.send_self_ms": self_ms("transport.send"),
        "transport.send_failures": facts["send_failures"],
        "transport.send_retries": facts["send_retries"],
        "transport.datagrams_in": calls("transport.datagram_in"),
        "transport.loop_busy_ratio": facts["loop_busy_ratio"],
        "transport.loop_lag_p99_ms": facts["loop_lag_p99_ms"],
        "transport.loop_stall_max_ms": facts["loop_stall_max_ms"],
        "soap.receive_calls": received,
        "soap.receive_self_ms": self_ms("soap.receive"),
        "soap.parse_calls": calls("soap.parse"),
        "soap.parse_self_ms": self_ms("soap.parse"),
        "soap.parse_ratio": _ratio(calls("soap.parse"), received),
        "soap.encode_calls": calls("soap.encode"),
        "soap.encode_self_ms": self_ms("soap.encode"),
        "soap.encode_reuse_ratio": _ratio(facts["serialize_reused"], encodes),
        "soap.chain_self_ms": self_ms("soap.chain_in", "soap.chain_out"),
        "core.handler.gate_calls": gate_calls,
        "core.handler.gate_self_ms": self_ms("core.handler.gate"),
        "core.handler.gate_drop_ratio": _ratio(
            counts["core.handler.gate_drops"], gate_calls
        ),
        "core.handler.on_inbound_self_ms": self_ms("core.handler.on_inbound"),
        "core.handler.ingest_pressure_max": recorder.maxima.get(
            "core.handler.ingest_pressure", 0.0
        ),
        "core.batch.build_calls": builds,
        "core.batch.build_self_ms": self_ms("core.batch.build"),
        "core.batch.rumors_per_batch": _ratio(counts["core.batch.rumors"], builds),
        "core.batch.split_calls": calls("core.batch.split"),
        "core.batch.split_self_ms": self_ms("core.batch.split"),
        "core.batch.control_scan_calls": calls("core.batch.control_scan"),
        "core.batch.control_scan_self_ms": self_ms("core.batch.control_scan"),
        "core.message.scan_calls": calls("core.message.scan"),
        "core.message.scan_self_ms": self_ms("core.message.scan"),
        "core.message.splice_calls": splices,
        "core.message.splice_decline_ratio": _ratio(
            counts["core.message.splice_declines"], splices
        ),
        "core.engine.on_gossip_calls": on_gossip,
        "core.engine.on_gossip_self_ms": self_ms("core.engine.on_gossip"),
        "core.engine.fresh_ratio": _ratio(counts["core.engine.fresh"], on_gossip),
        "core.engine.dup_preparse_calls": calls("core.engine.dup_preparse"),
        "core.engine.serve_pull_calls": calls("core.engine.serve_pull"),
        "core.engine.serve_pull_self_ms": self_ms("core.engine.serve_pull"),
        "core.engine.batch_control_self_ms": self_ms("core.engine.batch_control"),
        "core.engine.publish_self_ms": self_ms("core.engine.publish"),
        "core.engine.flush_self_ms": self_ms("core.engine.flush"),
        "core.engine.round_self_ms": self_ms("core.engine.round"),
        "core.engine.outbox_depth_max": recorder.maxima.get(
            "core.engine.outbox_depth", 0.0
        ),
        "core.buffer.digest_calls": digests,
        "core.buffer.digest_ids_mean": _ratio(counts["core.buffer.digest_ids"], digests),
        "core.buffer.digest_self_ms": self_ms("core.buffer.digest"),
        "core.buffer.compare_self_ms": self_ms(
            "core.buffer.missing_from", "core.buffer.not_in"
        ),
        "obs.counter_calls": counter_calls,
        "obs.counter_calls_per_delivery": _ratio(counter_calls, deliveries),
        "obs.counter_self_ms": prefixed_self_ms("obs."),
        "obs.scrape_calls": facts["scrape_calls"],
        "obs.scrape_ms_p50": facts["scrape_ms_p50"],
        "obs.scrape_bytes": facts["scrape_bytes"],
        "workloads.gen_late_p99_ms": facts["gen_late_p99_ms"],
        "workloads.gen_late_max_ms": facts["gen_late_max_ms"],
        "workloads.latency_p99_ms": facts["latency_p99_ms"],
        "trace.overhead_ratio": facts["trace_overhead_ratio"],
        "trace.unattributed_share": max(0.0, 1.0 - _ratio(root_ns, cpu_ns)),
        "trace.spans": recorder.span_count,
    }


def _unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50")):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_share", "_per_delivery", "pressure_max")):
        return "ratio"
    return "count"


#: Per-layer metrics where a larger value is the better one; every other
#: per-layer metric is better lower.
HIGHER_IS_BETTER = {
    "soap.encode_reuse_ratio",
    "core.handler.gate_drop_ratio",
    "core.batch.rumors_per_batch",
    "core.engine.fresh_ratio",
    "obs.scrape_calls",
    "trace.overhead_ratio",
}


def per_layer_units() -> Dict[str, tuple]:
    """``name -> (unit, better)`` for every per-layer metric."""
    names = layer_metrics(SpanRecorder(), defaultdict(float))
    return {
        name: (_unit(name), "higher" if name in HIGHER_IS_BETTER else "lower")
        for name in names
    }
