"""Envelope encoder gate: the one-walk encoder against ElementTree's write.

``repro.xmlutil.canonical_bytes`` promises the bytes of
``ElementTree(element).write(..., encoding="utf-8", xml_declaration=True)``
(``repro.xmlutil.text.reference_bytes``) at a fraction of the cost.  This
gate checks both halves on real traffic:

1. It records every envelope tree the stack encodes during a seeded
   N=50 push-pull run on the default unbatched wire, and checks that each
   one encodes byte-identically through both encoders (and to the bytes
   the run actually sent).
2. It times both encoders over the recorded trees.  Method as in
   ``bench_telemetry``: process CPU time, GC collected then disabled
   around each timed pass, a warm-up first, then the two encoders
   interleaved and the minimum over repeats kept -- per chunk of trees,
   so a slow phase of a shared host lands on both encoders alike.  The
   headline is the ratio reference CPU / one-walk CPU.

``make bench-encode-smoke`` runs it and fails below a 1.5x ratio::

    PYTHONPATH=src python benchmarks/bench_encode.py
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Callable, List, Tuple

import xml.etree.ElementTree as ET

import repro.soap.envelope as envelope_module
from repro import GossipConfig
from repro.workloads import StockFeed
from repro.xmlutil.text import canonical_bytes, reference_bytes

NODES = 50
SEED = 5
TICKS = 20
DRAIN_SIM_S = 5.0
PARAMS = {"style": "push-pull", "fanout": 4, "rounds": 6, "period": 0.5}
RATIO_FLOOR = 1.5
REPEATS = 5
CHUNK = 200
#: Envelopes timed, an even sample of the recorded run (all are checked).
TIMED = 2000


def host_fingerprint() -> dict:
    """Where this result was measured."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
    }


def record_envelopes() -> List[Tuple[ET.Element, bytes]]:
    """Every (envelope tree, sent bytes) pair of one seeded push-pull run."""
    recorded: List[Tuple[ET.Element, bytes]] = []

    def recording(element: ET.Element) -> bytes:
        data = canonical_bytes(element)
        recorded.append((element, data))
        return data

    envelope_module.canonical_bytes = recording
    try:
        group = GossipConfig(
            n_disseminators=NODES - 1, seed=SEED, params=dict(PARAMS), auto_tune=False
        ).build()
        group.setup(settle=1.0)
        for tick in itertools.islice(StockFeed(seed=SEED).ticks(TICKS), TICKS):
            group.publish(tick.to_value())
            group.run_for(0.1)
        group.run_for(DRAIN_SIM_S)
    finally:
        envelope_module.canonical_bytes = canonical_bytes
    return recorded


def mismatches(recorded: List[Tuple[ET.Element, bytes]]) -> int:
    """Trees whose encodings differ from the reference or the sent bytes."""
    return sum(
        1
        for tree, sent in recorded
        if not (canonical_bytes(tree) == reference_bytes(tree) == sent)
    )


def _cpu(encode: Callable[[ET.Element], bytes], trees: List[ET.Element]) -> float:
    gc.collect()
    gc.disable()
    started = time.process_time()
    for tree in trees:
        encode(tree)
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed


def measure(trees: List[ET.Element]) -> dict:
    """Interleaved min-CPU of both encoders, summed over chunks."""
    reference_s = one_walk_s = 0.0
    for start in range(0, len(trees), CHUNK):
        chunk = trees[start:start + CHUNK]
        _cpu(reference_bytes, chunk)  # warm-up
        _cpu(canonical_bytes, chunk)
        reference_runs, one_walk_runs = [], []
        for _ in range(REPEATS):
            reference_runs.append(_cpu(reference_bytes, chunk))
            one_walk_runs.append(_cpu(canonical_bytes, chunk))
        reference_s += min(reference_runs)
        one_walk_s += min(one_walk_runs)
    return {
        "envelopes": len(trees),
        "reference_us": reference_s / len(trees) * 1e6,
        "one_walk_us": one_walk_s / len(trees) * 1e6,
        "ratio": reference_s / max(one_walk_s, 1e-9),
    }


def main() -> int:
    print("host", host_fingerprint())
    recorded = record_envelopes()
    bad = mismatches(recorded)
    stride = max(1, len(recorded) // TIMED)
    row = measure([tree for tree, _ in recorded[::stride]])
    print(
        f"envelopes {len(recorded)}  mismatched {bad}  timed {row['envelopes']}  "
        f"reference {row['reference_us']:.1f} us  one-walk {row['one_walk_us']:.1f} us  "
        f"ratio {row['ratio']:.2f}x (floor {RATIO_FLOOR}x)"
    )
    failures = []
    if not recorded:
        failures.append("the run encoded no envelopes")
    if bad:
        failures.append(f"{bad} envelopes differ from the ElementTree reference")
    if row["ratio"] < RATIO_FLOOR:
        failures.append(f"encode ratio {row['ratio']:.2f}x below {RATIO_FLOOR}x")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"OK: {len(recorded)} envelopes byte-identical, {row['ratio']:.2f}x faster")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
