"""Runs one workload in a fresh interpreter and prints a JSON record.

run.py starts this with PYTHONPATH set to the checkout's ``src``.  The line
``READY`` marks the end of set-up (imports, the first cycle's inputs and
one warm-up unit); the last line is the record.

Timed metrics are given on a reference scale.  Between units, at most every
REF_EVERY seconds, the worker times ``reference()``, a fixed kernel of
interpreted Python and small numpy calls that does not touch thinpower.
Each unit's latency is divided by the median reference time within
REF_WINDOW seconds of the unit, and read in "ref_ms": milliseconds on a
machine where the reference kernel takes exactly 1 ms.  On a shared host
whose speed swings by 2x within seconds, this cancels the host's speed and
keeps the program's; the wall-clock figures are kept in the record.

    worker.py setup --workload W --seed N            set up, then exit
    worker.py run   --workload W --seed N --seconds S
    worker.py trace --workload W --seed N --spans FILE
    worker.py probe                                  the envelope probe
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import thinpower
import workloads as wl
from thinpower import jsonio

SRC = Path(__file__).resolve().parent.parent / "src"
REF_EVERY = 0.05     # seconds between reference timings, at least
REF_WINDOW = 0.5     # seconds around a unit whose reference timings scale it
_REF_X = np.linspace(0.01, 1.0, 64)


def reference() -> float:
    """The fixed yardstick: interpreted loops and small numpy calls, the mix
    thinpower's units spend their time in, at about 1 ms."""
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.log(_REF_X + i) * _REF_X))
        acc += math.fsum([k * 0.5 for k in range(40)])
        acc += sum({k: 2 * k for k in range(20)}.values())
    return acc


class RefClock:
    """Times ``reference()`` between units, at most every REF_EVERY s."""

    def __init__(self):
        self.at, self.took = [], []
        self._last = -math.inf

    def tick(self) -> None:
        start = time.perf_counter()
        if start - self._last >= REF_EVERY:
            reference()
            self._last = time.perf_counter()
            self.at.append(start)
            self.took.append(self._last - start)

    def local(self, starts, latencies) -> np.ndarray:
        """The median reference time within REF_WINDOW s of each unit.

        A tick runs before the first unit and after any unit that ends
        REF_EVERY s or more after the last tick, so every unit has one
        within REF_WINDOW before it."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        out = np.empty(len(starts))
        for i, (start, lat) in enumerate(zip(starts, latencies)):
            lo, hi = np.searchsorted(at, (start - REF_WINDOW,
                                          start + lat + REF_WINDOW))
            out[i] = np.median(took[lo:hi])
        return out


def cycle_units(workload, seed: int, index: int) -> list:
    return workload.cycle(np.random.default_rng([seed, index]))


def execute(units, latencies, failures, digest=None, tracer=None,
            clock=None, starts=None) -> None:
    """Run units in turn: time the call and its canonical serialisation,
    then check the value.  A unit that raises or fails its check adds a
    message to `failures`.  With a clock, each unit's start goes to
    `starts` and the clock ticks after it, outside the timed span."""
    for unit in units:
        if tracer is not None:
            tracer.unit = len(latencies)
        start = time.perf_counter()
        if starts is not None:
            starts.append(start)
        try:
            value = unit.run()
            text = jsonio.dumps_canonical(wl.to_doc(value))
        except Exception as exc:  # count any failure of a unit
            text = None
            failures.append(f"{unit.kind}: raised {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.unit = -1
        if text is not None:
            try:
                unit.check(value)
            except Exception as exc:  # a check failure is a failed unit
                failures.append(f"{unit.kind}: {type(exc).__name__}: {exc}")
        if digest is not None:
            digest.update((text if text is not None else "!error").encode()
                          + b"\n")
        if clock is not None:
            clock.tick()


def latency_stats(lat_ms: np.ndarray, tail_pct: float) -> dict:
    """Throughput, median and tail of one run's unit latencies, given in ms
    or ref_ms; throughput is per second of the same scale."""
    tail = float(np.percentile(lat_ms, tail_pct))
    return {"throughput": 1e3 * lat_ms.size / float(lat_ms.sum()),
            "latency_p50_ms": float(np.median(lat_ms)),
            "latency_tail_ms": tail,
            "tail_beyond": int(np.count_nonzero(lat_ms > tail))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "probe"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if Path(thinpower.__file__).resolve().parent.parent != SRC:
        print(f"thinpower imported from {thinpower.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.mode == "probe":
        print(json.dumps({p.name: {"defect": p.defect, **wl.run_probe(p)}
                          for p in wl.PROBES}))
        return 0

    workload = wl.WORKLOADS[args.workload]
    cycles = [cycle_units(workload, args.seed, 0)]
    # warm-up; a failure here is counted when the unit runs again in cycle 0
    execute(cycles[0][:1], [], [])
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    per_cycle, traced, failures = [], [], []
    digest = hashlib.sha256()
    record = {}
    if args.mode == "run":
        clock, starts = RefClock(), []
        clock.tick()
        deadline = time.perf_counter() + args.seconds
        while len(per_cycle) < workload.min_cycles or time.perf_counter() < deadline:
            index = len(per_cycle)
            units = (cycles.pop() if index == 0
                     else cycle_units(workload, args.seed, index))
            per_cycle.append([])
            execute(units, per_cycle[-1], failures,
                    digest if index < workload.min_cycles else None,
                    clock=clock, starts=starts)
        wall = np.concatenate(per_cycle)
        ref = clock.local(starts, wall)
        record.update(latency_stats(wall / ref, workload.tail_pct),
                      wall=latency_stats(wall * 1e3, workload.tail_pct),
                      ref_ms={"timings": len(clock.took),
                              "median": 1e3 * float(np.median(clock.took)),
                              "min": 1e3 * float(np.min(clock.took))})
    else:
        # the same fixed cycles untraced, then traced: counts repeat exactly
        cycles += [cycle_units(workload, args.seed, i)
                   for i in range(1, workload.trace_cycles)]
        for units in cycles:
            per_cycle.append([])
            execute(units, per_cycle[-1], failures, digest)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        for units in cycles:
            execute(units, traced, failures, tracer=tracer)
        if args.spans:
            tracer.save(args.spans)
        record.update(overhead_ratio=sum(traced) / sum(map(sum, per_cycle)),
                      layers=tracer.summary())

    # read before the once-per-run checks, whose inputs are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fixed = workload.fixed()
    execute(fixed, [], failures)
    units = sum(map(len, per_cycle))
    record.update(
        cycles=len(per_cycle), units=units,
        attempted=units + len(traced) + len(fixed), failures=failures,
        digest=digest.hexdigest(), peak_rss_mb=peak_rss_mb,
        tail_pct=workload.tail_pct)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
