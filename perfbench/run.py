"""The repo benchmark: one command per workload, end-to-end metrics from
untraced passes, per-layer metrics from a traced pass.

Run from the repository root::

    python3 perfbench/run.py --workload sim-push-burst --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs one
untraced and one traced pass and prints every per-layer metric.  The
last line of standard output is the JSON result; the lines above it are
the host fingerprint and a readable table.  The exit code is non-zero
when a correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import socket
import subprocess
import sys
from pathlib import Path

import layers
from measure import Distribution, median, percentile
from tracer import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sim-push-burst", "sim-pushpull-default", "live-udp-steady")

#: The default seed, and a held-out seed no tuning has looked at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Simulator runs repeat their seed at least this often (determinism check).
MIN_SIM_PASSES = 2

#: name -> (unit, better) of every end-to-end metric.
END_TO_END = {
    "deliveries_per_cpu_s": ("1/s", "higher"),
    "deliveries_per_wall_s": ("1/s", "higher"),
    "delivered_fraction": ("ratio", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "msgs_per_delivery": ("ratio", "lower"),
    "bytes_per_delivery": ("B", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _git(*args: str) -> str:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return completed.stdout.strip() if completed.returncode == 0 else ""


def host_fingerprint(workload: str, seed: int) -> dict:
    """Where and on what this result was measured."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    # A checkout without .git (an exported tree) records "unknown" rather
    # than the sha of some enclosing repository.
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or "unknown",
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "workload": workload,
        "seed": seed,
    }


def _run_pass(args, recorder=None, probe=False):
    import workloads  # imports the program, so only once src/ is on the path

    if args.workload == "sim-push-burst":
        return workloads.sim_push_burst(args.seed, recorder)
    if args.workload == "sim-pushpull-default":
        return workloads.sim_pushpull_default(args.seed, recorder)
    return workloads.live_udp_steady(args.seed, args.seconds, recorder, probe)


def measure_end_to_end(args) -> tuple:
    """Untraced passes: a simulator repeats its seed until ``--seconds`` of
    measured time; a live mesh measures one ``--seconds`` window."""
    passes = [_run_pass(args)]
    if args.workload.startswith("sim-"):
        while len(passes) < MIN_SIM_PASSES or sum(p.wall_s for p in passes) < args.seconds:
            passes.append(_run_pass(args))
    failures = [message for one in passes for message in one.failures]
    if len({one.fingerprint for one in passes}) > 1:
        failures.append(
            f"repeated runs of seed {args.seed} differ in deliveries, net.sent, "
            "net.bytes or simulated latency percentiles: "
            f"{sorted(one.fingerprint for one in passes)}"
        )

    deliveries = sum(one.deliveries for one in passes)
    attempted = sum(one.ops.attempted for one in passes)
    failed = sum(one.ops.failed for one in passes)
    latency = Distribution.of([group for one in passes for group in one.latency_groups_ms])
    if not latency.p95_supported:
        failures.append(
            "fewer than ten latency samples lie beyond the p95 of some of "
            f"its {latency.groups} groups"
        )
    values = {
        "deliveries_per_cpu_s": median([one.deliveries / one.cpu_s for one in passes]),
        "deliveries_per_wall_s": median([one.deliveries / one.wall_s for one in passes]),
        "delivered_fraction": (attempted - failed) / attempted,
        "latency_p50_ms": latency.p50,
        "latency_p95_ms": latency.p95,
        "msgs_per_delivery": sum(one.wire_msgs for one in passes) / deliveries,
        "bytes_per_delivery": sum(one.wire_bytes for one in passes) / deliveries,
        "setup_s": median([one.setup_s for one in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Latency percentiles are medians over groups: "samples/groups".
    latency_samples = f"{latency.count}/{latency.groups}"
    samples = {
        "deliveries_per_cpu_s": len(passes),
        "deliveries_per_wall_s": len(passes),
        "delivered_fraction": attempted,
        "latency_p50_ms": latency_samples,
        "latency_p95_ms": latency_samples,
        "msgs_per_delivery": deliveries,
        "bytes_per_delivery": deliveries,
        "setup_s": len(passes),
        "peak_rss_mb": 1,
    }
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return passes, values, samples, units, failures


def measure_layers(args) -> tuple:
    """One untraced pass for timing figures, then one traced pass."""
    untraced = _run_pass(args, probe=True)
    recorder = SpanRecorder()
    instrumentation = layers.instrument(recorder)
    try:
        traced = _run_pass(args, recorder=recorder)
    finally:
        instrumentation.uninstall()
    failures = untraced.failures + traced.failures
    if untraced.fingerprint != traced.fingerprint:
        failures.append(
            "the traced pass changed deterministic outputs: "
            f"{untraced.fingerprint} untraced, {traced.fingerprint} traced"
        )
    # Timing figures come from the untraced pass, which tracing cannot slow.
    timing_keys = (
        "loop_busy_ratio", "loop_lag_p99_ms", "loop_stall_max_ms", "scrape_calls",
        "scrape_ms_p50", "scrape_bytes", "gen_late_p99_ms", "gen_late_max_ms",
    )
    facts = dict(traced.facts)
    for key in timing_keys:
        facts[key] = untraced.facts.get(key, 0.0)
    facts["deliveries"] = traced.deliveries
    facts["cpu_s"] = traced.cpu_s
    facts["latency_p99_ms"] = percentile(
        [value for group in untraced.latency_groups_ms for value in group], 99
    )
    facts["trace_overhead_ratio"] = (traced.deliveries / traced.cpu_s) / (
        untraced.deliveries / untraced.cpu_s
    )
    values = layers.layer_metrics(recorder, facts)
    _print_ledger(recorder, traced.cpu_s)
    units = {name: unit for name, (unit, _) in layers.per_layer_units().items()}
    return [untraced], values, dict.fromkeys(values, 1), units, failures


def _print_ledger(recorder, cpu_s: float) -> None:
    """Self time per span name and per layer, as a share of traced CPU."""
    totals, root_ns = recorder.totals()
    cpu_ms = cpu_s * 1000.0
    by_layer = {}
    print(f"{'span':32} {'calls':>10} {'self ms':>10} {'share':>7}")
    for name, entry in sorted(totals.items(), key=lambda item: -item[1].self_ns):
        self_ms = entry.self_ns / 1e6
        layer = name.rpartition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_ms
        print(f"{name:32} {entry.calls:>10} {self_ms:>10.1f} {self_ms / cpu_ms:>7.1%}")
    print(f"{'layer':32} {'':>10} {'self ms':>10} {'share':>7}")
    for layer, self_ms in sorted(by_layer.items(), key=lambda item: -item[1]):
        print(f"{layer:32} {'':>10} {self_ms:>10.1f} {self_ms / cpu_ms:>7.1%}")
    unattributed = max(0.0, cpu_ms - root_ns / 1e6)
    print(f"{'(no span)':32} {'':>10} {unattributed:>10.1f} {unattributed / cpu_ms:>7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)",
    )
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    print("host " + json.dumps(host_fingerprint(args.workload, args.seed)))
    measured = measure_layers(args) if args.trace else measure_end_to_end(args)
    passes, values, samples, units, failures = measured
    print(f"{'metric':40} {'value':>14} {'unit':>6} {'samples':>11}")
    for name, value in values.items():
        print(f"{name:40} {value:>14.6g} {units[name]:>6} {samples[name]:>11}")
    if passes[0].fingerprint is not None:
        print(
            "simulated latency ms p50/p95/p99 (repeat exactly per seed): "
            + json.dumps(passes[0].fingerprint[3:])
        )
    print("per-pass deliveries_per_cpu_s: " + json.dumps(
        [one.deliveries / one.cpu_s for one in passes]
    ))
    for message in failures:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": not failures,
        "attempted": sum(one.ops.attempted for one in passes),
        "failed": sum(one.ops.failed for one in passes),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
