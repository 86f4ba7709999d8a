"""Record the documents behind the pinned output digests, and list the
numbers that moved between two records.

    python tools/golden.py record OUT     write the documents to OUT
    python tools/golden.py diff OLD NEW   print each value that moved;
                                          exit 1 if any did

The pins live in one table, MANIFEST in tests/test_pinned_outputs.py,
whose test runs the same builders.  A record is one canonical-JSON object
that holds each entry's document at the JSON pointer of the entry's name:
the stdout of `thinpower verify --all` at /cli/verify --all, the seed-1
cycles of ulc_sweep at /bench/ulc_sweep, the epilike checks at /epilike.
The tool writes only OUT.  `diff` prints one line per moved value: its
JSON pointer, the old and new values and, for two finite numbers, their
distance in ulps.  It prints nothing and exits 0 for equal records, exits
1 when a value moved, and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record() -> dict:
    """Each manifest entry's document, at the pointer of its name."""
    from test_pinned_outputs import MANIFEST
    doc = {}
    for name, pin in MANIFEST.items():
        section, _, key = name.partition("/")
        _, document = pin.build()
        if key:
            doc.setdefault(section, {})[key] = document
        else:
            doc[section] = document
    return doc


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
        Path(args[1]).write_text(dumps_canonical(record()) + "\n")
        return 0
    if len(args) == 3 and args[0] == "diff":
        old, new = (json.loads(Path(p).read_text()) for p in args[1:])
        moved = list(moves(old, new))
        for path, a, b, ulps in moved:
            tail = "" if ulps is None else f"  {ulps} ulps"
            print(f"{path}  {json.dumps(a)} -> {json.dumps(b)}{tail}")
        return 1 if moved else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.exit(main())
