"""tools/golden.py: a record holds one document per pinned output, a
record diffed against itself prints nothing and exits 0, and a number moved
by one ulp prints one line and exits 1."""

import importlib
import json
import math
from pathlib import Path

import pytest

from test_pinned_outputs import MANIFEST

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def golden():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOLS))
        yield importlib.import_module("golden")


def _diff(golden, capsys, old, new, tmp_path) -> tuple:
    """diff's exit status and printed lines."""
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, doc in zip(paths, (old, new)):
        path.write_text(json.dumps(doc))
    code = golden.main(["diff", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}/{key}")
    else:
        yield path, doc


def test_a_record_holds_one_document_per_pin(golden, monkeypatch):
    # no pin without a record and no record without a pin: with each
    # builder swapped for one that returns its entry's name, that name is
    # the record's only leaf at its pointer
    for name, pin in MANIFEST.items():
        monkeypatch.setitem(MANIFEST, name,
                            pin._replace(build=lambda name=name: ("", name)))
    assert dict(_leaves(golden.record())) == {
        "/" + name: name for name in MANIFEST}


def test_a_record_against_itself_and_one_ulp_off(golden, capsys, tmp_path):
    # the epilike document: among the cheapest to build
    record = {"epilike": MANIFEST["epilike"].build()[1]}
    assert _diff(golden, capsys, record, record, tmp_path) == (0, [])
    moved = json.loads(json.dumps(record))
    alpha = moved["epilike"][3]["inputs"]["alpha"]
    moved["epilike"][3]["inputs"]["alpha"] = math.nextafter(alpha, 1.0)
    code, lines = _diff(golden, capsys, record, moved, tmp_path)
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("/epilike/3/inputs/alpha  ")
    assert lines[0].endswith("  1 ulps")


@pytest.mark.parametrize("argv", [[], ["diff", "old.json"],
                                  ["record", "a", "b"], ["merge", "a", "b"]])
def test_a_usage_error_exits_2(golden, capsys, argv):
    assert golden.main(argv) == 2
    assert "golden.py record OUT" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, found", [
    (1.0, -1.0, [("/v", 1.0, -1.0, 2 * 0x3FF0000000000000)]),
    (0.0, -0.0, [("/v", 0.0, -0.0, 0)]),
    (math.nan, math.nan, []),
    (True, False, [("/v", True, False, None)]),
    (1.5, None, [("/v", 1.5, None, None)])])
def test_moves(golden, old, new, found):
    assert list(golden.moves({"v": old}, {"v": new})) == found
