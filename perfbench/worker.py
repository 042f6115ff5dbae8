"""One fresh benchmark process: set up, print `ready`, run one workload once.

Run by `run.py`, one process at a time, with `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload xxz_deep --seed 1 --mode plain

Modes: `setup` stops after `ready`; `plain` times the workload through
opmagic's public entry points; `traced` replays it through a SpanProbe
and, with `--count`, once more through a CountProbe. The last line of
stdout is one JSON object with the timings, the outputs and, under
`gates`, one list of failure messages per operation checked.

Every worker also times a fixed calibration loop, `cal_s`: a setup worker
right after `ready`, any other worker right after its timed part (and
after reading its peak memory). `run.py` divides by the run's median
`cal_s` to take the machine's speed out of the timings.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import gates
from probes import CountProbe, SpanProbe
from workloads import WORKLOADS

CAL_LOOP = 150_000
CAL_MATRIX_STEPS = 400


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-matrix numpy work.

    The engine workloads are interpreter work on ints, tuples and dicts;
    haar_mc is numpy on 16x16 matrices. The loop does some of each, so a
    slower phase of the machine slows it as it slows the workloads.
    """
    t0 = time.perf_counter()
    table: dict = {}
    x = 12345
    for _ in range(CAL_LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, (x >> 16) & 63)
        table[key] = table.get(key, 0.0) + 1.0
    rng = np.random.default_rng(0)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for _ in range(CAL_MATRIX_STEPS):
        q, _ = np.linalg.qr(z)
        m = (q.conj().T @ z @ q).reshape(4, 4, 4, 4)
        np.tensordot(m, m, axes=(1, 0))
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--count", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here as JSONL")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        sys.stdout.write(json.dumps({"cal_s": calibrate()}) + "\n")
        return 0

    result: dict = {}
    if args.mode == "plain":
        t0 = time.perf_counter()
        raw = workload.plain(inp)
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cal_s"] = calibrate()
    else:
        probe = SpanProbe()
        probe.begin()
        raw = workload.traced(inp, probe)
        probe.end()
        result["cal_s"] = calibrate()
        result["wall_s"] = probe.wall_s
        result["self_s"] = probe.self_times()
        result["calls"] = probe.calls()
        if args.spans:
            probe.write(args.spans)
        if args.count:
            counter = CountProbe()
            counted = workload.outputs(workload.traced(inp, counter))
            result["counts"] = counter.metrics()
            result["counted_outputs"] = counted
            result["gates"] = [
                gates.rank_identity_gate(counter.rank_steps.get(op, 0.0), ose0)
                for op, ose0 in counter.ose0.items()
            ]

    out = workload.outputs(raw)
    result["gates"] = result.get("gates", []) + workload.check(inp, raw, out)
    result["outputs"] = out
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
