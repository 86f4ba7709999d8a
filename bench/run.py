#!/usr/bin/env python3
"""thinpower benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload ulc_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --compare before.jsonl after.jsonl

Run from the root of a checkout; thinpower is imported from ./src.  With
--trace 0 the last stdout line is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric.
Each run also appends its full record (machine, summary, probe results,
per-function trace table) to --record, and --compare reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"
SETUP_SAMPLES = 3          # fresh interpreters timed for setup_s, before and after the run
CHILD_TIMEOUT = 170.0
BLAS_THREADS = "1"         # the same in every run; the benchmark is single-threaded
NOTE = ("shared sandbox without CPU pinning or cache control; single "
        "process, single thread, closed loop, one client; unit latencies "
        "are scaled by a reference kernel timed beside them (ref_ms), "
        "setup_s is wall-clock")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(mode: str, *args: str):
    """Run bench/worker.py; return (seconds to READY, last stdout line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, *args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=_child_env()) as proc:
        ready = None
        if mode != "probe":
            if proc.stdout.readline().strip() != "READY":
                proc.kill()
                proc.wait()
                raise BenchError(f"worker {mode} failed during set-up")
            ready = time.perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {mode} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_threads": int(BLAS_THREADS),
        "seed": seed,
        "git_commit": _git_commit(),
        "note": NOTE,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    common = ("--workload", workload, "--seed", str(seed))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(seed)}
    if trace:
        OUT.mkdir(exist_ok=True)
        _, result = _worker("trace", *common, "--spans",
                            str(OUT / f"spans-{workload}.npz"))
        layers = result.pop("layers")
        metrics = {m["name"]: (_layer_metric(layers, m["name"], result), m["unit"])
                   for m in spec["per_layer"]}
        record["layers"] = layers
    else:
        setups = [_worker("setup", *common)[0] for _ in range(SETUP_SAMPLES)]
        ready, result = _worker("run", *common, "--seconds", str(seconds))
        setups.append(ready)
        setups += [_worker("setup", *common)[0] for _ in range(SETUP_SAMPLES)]
        result["setup_samples_s"] = setups
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput": (result["throughput"], "1/ref_s"),
            "latency_p50_ms": (result["latency_p50_ms"], "ref_ms"),
            "latency_tail_ms": (result["latency_tail_ms"], "ref_ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
        probes = {}
        if workload == "wide_support":
            probes = _worker("probe")[1]
        probe_failed = sum(p["outcome"] == "fail" for p in probes.values())
        record["probes"] = probes
        # error_rate counts the untimed envelope probe as well as the units
        result["error_rate"] = ((len(result["failures"]) + probe_failed)
                                / (result["attempted"] + len(probes)))
    record.update(result=result, correct=not result["failures"],
                  attempted=result["attempted"], failed=len(result["failures"]),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    return record


def _layer_metric(layers: dict, name: str, result: dict) -> float:
    if name == "trace.overhead_ratio":
        return result["overhead_ratio"]
    function, stat = name.rsplit(".", 1)
    return layers.get(function, {}).get(stat, 0)


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    if record["trace"]:
        print(f"{'function':58} {'calls':>9} {'self_ms':>10} {'total_ms':>10}")
        for name, row in sorted(record["layers"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"{name:58} {row['calls']:9d} {row['self_ms']:10.1f} "
                  f"{row['total_ms']:10.1f}")
    else:
        wall, ref = result["wall"], result["ref_ms"]
        print(f"units {result['units']} in {result['cycles']} cycles; tail is "
              f"p{result['tail_pct']:g} with {result['tail_beyond']} samples "
              "beyond it; setup samples "
              + " ".join(f"{s:.3f}" for s in result["setup_samples_s"]))
        print(f"reference kernel {ref['median']:.4g} ms median, "
              f"{ref['min']:.4g} ms min, timed {ref['timings']} times")
        print(f"wall clock: throughput {wall['throughput']:.6g} (1/s) "
              f"latency_p50 {wall['latency_p50_ms']:.6g} (ms) "
              f"latency_tail {wall['latency_tail_ms']:.6g} (ms)")
        print(f"error_rate {result['error_rate']:.6g} (1)")
        for name, probe in record["probes"].items():
            print(f"probe {name}: {probe['outcome']}  {probe['detail'][:90]}"
                  f"  [{probe['defect']}]")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} ({metric['unit']})")
    print(f"output digest sha256 {result['digest']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec: dict, before: Path, after: Path) -> int:
    """Per (workload, metric): medians, quartiles and the verdict."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = []
    for path in (before, after):
        grouped = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                for name, metric in record["metrics"].items():
                    grouped.setdefault((record["workload"], name), []).append(
                        metric["value"])
        sets.append(grouped)
    print(f"{'workload':13} {'metric':34} {'n':>5} {'median A':>11} "
          f"{'median B':>11} {'spread A':>8} {'spread B':>8} {'change':>8}  verdict")
    worst = 0
    for key in sorted(set(sets[0]) & set(sets[1])):
        workload, name = key
        (a1, a2, a3), (b1, b2, b3) = (_quartiles(s[key]) for s in sets)
        spread_a = (a3 - a1) / a2 if a2 else float("inf")
        spread_b = (b3 - b1) / b2 if b2 else float("inf")
        change = (b2 - a2) / a2 if a2 else float("inf")
        bound = metrics[name].get("bound")
        lower = metrics[name]["better"] == "lower"
        worse = change if lower else -change
        runs_a, runs_b = sets[0][key], sets[1][key]
        b_wins_every_pair = (max(runs_b) < min(runs_a) if lower
                             else min(runs_b) > max(runs_a))
        if bound is None:
            verdict = "no bound"
        elif max(spread_a, spread_b) > bound and b_wins_every_pair:
            verdict = "better (every run)"
        elif max(spread_a, spread_b) > bound:
            verdict, worst = "unresolved", max(worst, 1)
        elif worse > bound:
            verdict, worst = "WORSE", 2
        elif -worse > bound:
            verdict = "better"
        else:
            verdict = "within bound"
        n = f"{len(runs_a)}/{len(runs_b)}"
        print(f"{workload:13} {name:34} {n:>5} {a2:11.5g} {b2:11.5g} "
              f"{spread_a:8.2%} {spread_b:8.2%} {change:+8.2%}  {verdict}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=OUT / "runs.jsonl",
                        help="append each run's full record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if not SPEC.is_file() or not (ROOT / "src" / "thinpower" / "__init__.py").is_file():
        print(f"no thinpower checkout at {ROOT}: need BENCHMARK.json and "
              "src/thinpower", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.compare:
        return compare(spec, *args.compare)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    seconds = args.seconds or spec["run_seconds"]

    for workload in names if args.workload == "all" else [args.workload]:
        try:
            record = run_workload(spec, workload, args.seed, seconds,
                                  bool(args.trace))
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        args.record.parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        print_record(record)
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
