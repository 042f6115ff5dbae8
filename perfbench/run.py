"""Benchmark of opmagic: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload doped_ensemble --seed 1 --seconds 30 --trace 0

Run from the repository root. Every measured run is a fresh worker process
(`worker.py`) with `src` on its path, started one at a time with BLAS
pinned to one thread, so the load is a single process on an otherwise
idle machine. Runs repeat until `--seconds` have passed and medians are
reported.

--trace 0 reports `wall_s` (first call into opmagic to the last result,
without the benchmark's checks), `setup_s` (process start to ready:
interpreter, imports, parameter list) and `peak_rss_mb` of the worker.
--trace 1 alternates untraced runs with traced replays and reports the
per-layer metrics; the first replay also counts work in a separate pass.
Times are in reference seconds (see REF_CAL_S); the raw medians are
printed too.

Every run's outputs go through the correctness gates in `gates.py`, must
repeat bit for bit across runs, and the traced replay must reproduce the
untraced outputs bit for bit. The last stdout line is the JSON result;
the full record, with the machine description, is written to
`perfbench/out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probes import SPAN_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
MIN_RUNS = 3
MIN_TRACED = 2
MIN_SETUP_SAMPLES = 11
MAX_MESSAGES = 20
WORKER_TIMEOUT_S = 150.0
# Times are reported in reference seconds: scaled by REF_CAL_S over the
# median time of the workers' calibration loop in the same run. The
# machine's speed drifts by a quarter and more over minutes; the scaling
# takes that drift out, while a change in opmagic's own cost, which the
# calibration loop does not run, still shows in full.
REF_CAL_S = 0.1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Start one worker, time it from start to `ready`, and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


class Tally:
    """Operations attempted and failed over every worker of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: MAX_MESSAGES - len(self.messages)])

    def worker(self, result: dict) -> None:
        """One operation per gate result of the worker: a list of failure messages."""
        results = result["gates"]
        self.add(len(results), sum(1 for msgs in results if msgs), [m for msgs in results for m in msgs])

    def same(self, what: str, reference, other) -> None:
        """One operation: `other` must equal `reference` bit for bit."""
        ok = reference == other
        self.add(1, 0 if ok else 1, [] if ok else [f"{what} differs from the first untraced run"])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


class Budget:
    """Rounds of measurement that fit in `seconds`, and at least `min_rounds`.

    A round starts only if one more of the median round length still ends
    within `seconds`, so a run lasts about `seconds` whatever a round costs.
    """

    def __init__(self, seconds: float, min_rounds: int) -> None:
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.start = self.mark = time.perf_counter()
        self.lengths: list[float] = []
        self.began = False

    def another(self) -> bool:
        now = time.perf_counter()
        if self.began:
            self.lengths.append(now - self.mark)
        self.began, self.mark = True, now
        if len(self.lengths) < self.min_rounds:
            return True
        return now - self.start + median(self.lengths) <= self.seconds


def speed(workers: list[dict]) -> float:
    """REF_CAL_S over the median calibration time of the run's workers."""
    return REF_CAL_S / median([r["cal_s"] for r in workers])


def run_end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    plain: list[dict] = []
    probes: list[dict] = []
    budget = Budget(seconds, MIN_RUNS)
    while budget.another():
        result = spawn(workload, seed, "plain")
        tally.worker(result)
        if plain:
            tally.same("rerun outputs", plain[0]["outputs"], result["outputs"])
        plain.append(result)
        probes.append(spawn(workload, seed, "setup"))
    while len(plain) + len(probes) < MIN_SETUP_SAMPLES:
        probes.append(spawn(workload, seed, "setup"))
    workers = plain + probes
    samples = {
        "raw_wall_s": [r["wall_s"] for r in plain],
        "raw_setup_s": [r["setup_s"] for r in workers],
        "cal_s": [r["cal_s"] for r in workers],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    medians = {name: median(values) for name, values in samples.items()}
    k = speed(workers)
    metrics = {"wall_s": medians["raw_wall_s"] * k, "setup_s": medians["raw_setup_s"] * k}
    return {**metrics, **medians}, samples


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    plain: list[dict] = []
    traced: list[dict] = []
    counts = None
    reference = None
    budget = Budget(seconds, MIN_TRACED)
    while budget.another():
        result = spawn(workload, seed, "plain")
        tally.worker(result)
        if reference is None:
            reference = result["outputs"]
        else:
            tally.same("rerun outputs", reference, result["outputs"])
        plain.append(result)
        extra = () if traced else ("--count", "--spans", str(OUT_DIR / f"spans-{workload}.jsonl"))
        result = spawn(workload, seed, "traced", *extra)
        tally.worker(result)
        tally.same("traced outputs", reference, result["outputs"])
        if "counts" in result:
            counts = result["counts"]
            tally.same("counted outputs", reference, result["counted_outputs"])
        traced.append(result)

    metrics: dict[str, float] = {}
    k = speed(plain + traced)
    for span, name in [*SPAN_METRICS.items(), ("root", "root.self_s")]:
        metrics[name] = median([r["self_s"].get(span, 0.0) for r in traced]) * k
    calls = traced[0]["calls"]
    metrics["heisenberg.clifford_calls"] = calls.get("heisenberg.clifford", 0)
    metrics["heisenberg.rotation_calls"] = calls.get("heisenberg.rotation", 0)
    metrics.update(counts)
    engine_s = metrics["heisenberg.clifford_s"] + metrics["heisenberg.rotation_s"]
    tgu = metrics.get("heisenberg.clifford_tgu", 0) + metrics.get("heisenberg.rotation_tgu", 0)
    metrics["heisenberg.tgu_per_s"] = tgu / engine_s if engine_s else 0.0
    samples = {
        "raw_untraced_wall_s": [r["wall_s"] for r in plain],
        "raw_traced_wall_s": [r["wall_s"] for r in traced],
        "cal_s": [r["cal_s"] for r in plain + traced],
    }
    untraced = median(samples["raw_untraced_wall_s"])
    metrics["trace.overhead_frac"] = (median(samples["raw_traced_wall_s"]) - untraced) / untraced
    return metrics, samples


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {key: env[key] for key in THREAD_ENV},
        "workers_in_parallel": 1,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "opmagic" / "__init__.py").is_file():
        print("run.py: no opmagic sources under src/; run from a full checkout", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    try:
        spawn(args.workload, args.seed, "setup")  # compile bytecode and warm the file cache
        run = run_traced if args.trace else run_end_to_end
        metrics, samples = run(args.workload, args.seed, args.seconds, tally)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    extra = {name: value for name, value in metrics.items() if name not in units}
    # a per-layer metric of a layer the workload never calls is 0
    metrics = {name: metrics.get(name, 0.0) if args.trace else metrics[name] for name in units}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args.seed),
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for message in tally.messages:
        print(f"# FAILED {message}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, value in extra.items():
        print(f"# median {name} {value:.6g} (raw_* in seconds before scaling)")
    print(f"ops_failed_frac {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
