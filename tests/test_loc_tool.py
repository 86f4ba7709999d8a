"""tools/loc.py: a line counts when it holds code; blank lines, comments
and the docstrings that open a module, class or function do not."""

import importlib
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = textwrap.dedent('''\
    """The module's docstring,
    over two lines."""

    import math  # a comment after code


    # a comment line
    def f(x):
        """f's docstring."""
        text = """a string that is not a docstring,
        over two lines"""
        return (x +
                math.pi)


    class C:
        """C's docstring."""
        def g(self): return "not a docstring"
        def h(self): """h's docstring, on the def's line"""
    ''')


@pytest.fixture(scope="module")
def loc():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOLS))
        yield importlib.import_module("loc")


def test_a_snippet_counts_its_code_lines(loc):
    # import, def f, the string's two lines, return's two, class, g and h
    assert loc.code_lines(SNIPPET) == 9
    assert loc.code_lines("") == 0


def test_main_prints_each_module_then_the_total(loc, capsys, tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[-1].endswith("total")
    assert loc.main([]) == 2
