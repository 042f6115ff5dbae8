"""Paired end-to-end benchmark of two checkouts, written to a BENCH_*.json.

    python3 scripts/bench_pairs.py BASE CHANGE --pairs 10 --seconds 40 --out BENCH_16.json

BASE and CHANGE are paths to two full checkouts (say, the parent commit
and the change) whose resolved paths have the same length: the script
refuses any other pair before it runs anything, since xxz_deep's
`peak_rss_mb` moves with that length, not with memory the program
holds. For each workload of CHANGE's `BENCHMARK.json`, the
script runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in the two checkouts one after the other, N pairs in all, and
swaps which side goes first from one pair to the next, so a slow phase of
the machine falls on both sides alike. Each run is its own process; none
run side by side. Before the first pair, it byte-compiles `src` and
`perfbench` in both checkouts with bytecode writing on: `run.py`'s
workers inherit the environment, and where PYTHONDONTWRITEBYTECODE is
set, a side without current bytecode would compile its modules again in
every worker, which shows in its `setup_s` and `peak_rss_mb`.

The output holds, per workload: every pair's metrics and failed share of
operations; each side's median and quartiles per end-to-end metric; the
number of pairs in which CHANGE is better, in the direction that
`BENCHMARK.json` gives; and the median change. Two verdicts per metric
follow the rules a change is judged by:
- `claim_met`: CHANGE is better in at least 9 of 10 pairs, and its median
  is better than BASE's by more than BASE's interquartile range, so it
  lies outside BASE's quartiles.
- `within_bound`: CHANGE's median is no worse than BASE's by more than the
  metric's relative `bound` in `BENCHMARK.json`.
Per workload, each side's failed share of operations (failed over
attempted, summed over all pairs) gets a third verdict:
- `no_more_failures`: CHANGE's failed share is no larger than BASE's.
It also records the
machine (from `run.py`'s own description), each side's git commit as
`run.py` reads it, and the numpy version of this interpreter, which runs
both sides.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def byte_compile(checkout: Path) -> None:
    """Write the bytecode of `src` and `perfbench` in a checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: compileall exited {done.returncode}: {done.stdout.strip()[-2000:]}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: its metric values, failures and machine."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: run.py {workload} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines if ln.startswith("# machine "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "machine": machine,
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of `BENCHMARK.json` (name, better, bound): both
    sides' quartiles, CHANGE's wins and the two verdicts."""
    out = {}
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        base_q, change_q = quartiles(base), quartiles(change)
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        gain = sign * (base_q["median"] - change_q["median"])  # > 0 when CHANGE is better
        out[name] = {
            "better": direction,
            "base": base_q,
            "change": change_q,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_rel_change": change_q["median"] / base_q["median"] - 1.0,
            "change_median_outside_base_iqr": not base_q["q1"] <= change_q["median"] <= base_q["q3"],
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > base_q["q3"] - base_q["q1"],
            "bound": metric["bound"],
            "within_bound": -gain <= metric["bound"] * abs(base_q["median"]),
        }
    return out


def failures(pairs: list[dict]) -> dict:
    """Each side's failed and attempted operations over all pairs, its failed
    share, and whether CHANGE's share is no larger than BASE's."""
    out = {}
    for side in ("base", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        out[side] = {"failed": failed, "attempted": attempted, "share": failed / attempted if attempted else 0.0}
    out["no_more_failures"] = out["change"]["share"] <= out["base"]["share"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    if len(str(sides["base"])) != len(str(sides["change"])):
        parser.error(f"checkout paths {sides['base']} and {sides['change']} differ in length; "
                     "xxz_deep's peak_rss_mb moves with that length")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    for checkout in sides.values():
        byte_compile(checkout)
    record = {
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "numpy": np.__version__,
        "commits": {},
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, args.seed, args.seconds)
                machine = pair[side].pop("machine")
                record["commits"][side] = machine.pop("git_commit")
                record.setdefault("machine", machine)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: "
                  + ", ".join(f"{s} wall_s {pair[s]['metrics']['wall_s']:.4f}" for s in sides), file=sys.stderr)
        record["workloads"][workload] = {
            "summary": summarize(pairs, spec["end_to_end"]), "failures": failures(pairs), "pair_runs": pairs,
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for workload, data in record["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{workload} {name}: base {s['base']['median']:.4g} change {s['change']['median']:.4g} "
                  f"({100 * s['median_rel_change']:+.1f}%), change better in {s['change_wins']}/{s['pairs']}, "
                  f"claim_met {s['claim_met']}, within_bound {s['within_bound']} (bound {s['bound']:g})")
        f = data["failures"]
        print(f"{workload} failed share: base {f['base']['failed']}/{f['base']['attempted']} "
              f"change {f['change']['failed']}/{f['change']['attempted']}, no_more_failures {f['no_more_failures']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
