"""Record the documents behind the tests' pinned output digests, and list
the numbers that moved between two records.

    python tools/golden.py record OUT     write the documents to OUT
    python tools/golden.py diff OLD NEW   print each value that moved

A record is one canonical-JSON object with a key per source of pins:

- "cli": the stdout document of each `PINNED_OUTPUTS` command
  (tests/test_cli.py), keyed by its arguments joined by spaces;
- "epilike" and "fast_path": the documents that `EPILIKE_DIGEST`
  (tests/test_inequality_suite.py) and `FAST_PATH_DIGEST`
  (tests/test_memo.py) hash;
- "bench": per workload, the unit documents of the seed-1 cycles that
  `BENCH_DIGESTS` (tests/test_bench_digests.py) pins, run by the
  benchmark worker's own `execute`, and the failures it counted.

The tests' own builders and the benchmark's own cycles make them; the tool
writes only OUT.  `diff` prints one line per moved value: its JSON pointer,
the old and new values and, for two finite numbers, their distance in ulps.
It prints nothing for equal records.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEED = 1


def _plain(doc):
    """doc as the JSON reader sees its canonical text."""
    from thinpower.jsonio import dumps_canonical
    return json.loads(dumps_canonical(doc))


def cli_docs() -> dict:
    from thinpower.cli import main
    from test_cli import PINNED_OUTPUTS
    docs = {}
    for argv, _ in PINNED_OUTPUTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        docs[" ".join(argv)] = json.loads(out.getvalue())
    return docs


def epilike_docs() -> list:
    from test_inequality_suite import epilike_docs as build
    return _plain(build())


def fast_path_docs() -> list:
    from test_memo import fast_path_docs as build
    return _plain(build())


class _Lines(list):
    """Takes the lines that worker.execute feeds its digest, as documents."""

    def update(self, line: bytes) -> None:
        text = line.decode().rstrip("\n")
        self.append(text if text == "!error" else json.loads(text))


def bench_docs() -> dict:
    import workloads
    import worker
    from test_bench_digests import BENCH_DIGESTS
    docs = {}
    for name in sorted(BENCH_DIGESTS):
        workload = workloads.WORKLOADS[name]
        cycles, failures = [], []
        for index in range(workload.min_cycles):
            cycles.append(_Lines())
            worker.execute(worker.cycle_units(workload, BENCH_SEED, index),
                           [], failures, cycles[-1])
        docs[name] = {"cycles": cycles, "failures": failures}
    return docs


SECTIONS = {"cli": cli_docs, "epilike": epilike_docs,
            "fast_path": fast_path_docs, "bench": bench_docs}


def _ordinal(x: float) -> int:
    """x's place in the ordered doubles; -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(a, b) -> bool:
    """a and b are one number: NaN matches NaN, and 0.0 does not match -0.0."""
    return (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
            or math.isnan(a) and math.isnan(b))


def moves(old, new, path: str = ""):
    """(pointer, old, new, ulps) for each value that differs, ulps None
    unless both are finite numbers; a key or entry missing on one side
    reads as None there."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            step = key.replace("~", "~0").replace("/", "~1")
            yield from moves(old.get(key), new.get(key), f"{path}/{step}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from moves(old[i] if i < len(old) else None,
                             new[i] if i < len(new) else None, f"{path}/{i}")
    elif _is_number(old) and _is_number(new):
        if not _same(old, new):
            finite = math.isfinite(old) and math.isfinite(new)
            yield (path, old, new,
                   abs(_ordinal(float(old)) - _ordinal(float(new)))
                   if finite else None)
    elif old != new:
        yield path, old, new, None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "record":
        from thinpower.jsonio import dumps_canonical
        doc = {name: build() for name, build in SECTIONS.items()}
        Path(args[1]).write_text(dumps_canonical(doc) + "\n")
        return 0
    if len(args) == 3 and args[0] == "diff":
        old, new = (json.loads(Path(p).read_text()) for p in args[1:])
        for path, a, b, ulps in moves(old, new):
            tail = "" if ulps is None else f"  {ulps} ulps"
            print(f"{path}  {json.dumps(a)} -> {json.dumps(b)}{tail}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "bench")]
    sys.exit(main())
