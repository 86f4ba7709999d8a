"""Source hygiene of the package: every function parameter is read by its
body, every import is used, no function rebinds a module name with a
``global`` statement (a table built once sits behind functools.cache, so
threads never see it half built), and the package runs on numpy alone,
also where log k! is needed past the shipped table.

The command handlers of the cli (``_cmd_*``) all take ``(args, cfg)``,
the signature the dispatch calls them with, and are exempt.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thinpower"
SOURCES = sorted(SRC.glob("*.py"))


def _loaded_names(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _parameters(func) -> list:
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in params]


def _unread_parameters(tree) -> list:
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        if getattr(func, "name", "").startswith("_cmd_"):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        read = set().union(*(_loaded_names(stmt) for stmt in body))
        name = getattr(func, "name", "<lambda>")
        unread += [f"{name}({param}) at line {func.lineno}"
                   for param in _parameters(func) if param not in read]
    return unread


def _unused_imports(tree) -> list:
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    used = _loaded_names(tree) | exported
    # a dotted use (np.zeros) loads the module's name itself
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{bound} at line {node.lineno}")
    return unused


def _global_statements(tree) -> list:
    return [f"{name} at line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Global) for name in node.names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_checks_see_an_unread_parameter_and_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "def f(x, cfg):\n    return np.abs(lambda y: x)\n"
                     "def _cmd_g(args, cfg):\n    return 0\n")
    assert _unread_parameters(tree) == ["f(cfg) at line 3",
                                        "<lambda>(y) at line 4"]
    assert _unused_imports(tree) == ["os at line 1"]


def test_no_source_has_a_global_statement():
    assert [f"{path.name}: {found}" for path in SOURCES
            for found in _global_statements(ast.parse(path.read_text()))] == []


def test_the_check_sees_a_global_statement():
    tree = ast.parse("_T = None\ndef f():\n    global _T, _U\n    _T = 1\n")
    assert _global_statements(tree) == ["_T at line 3", "_U at line 3"]


def test_runs_past_the_shipped_table_without_scipy():
    # a fresh interpreter in which importing scipy fails; Lambda of
    # Poisson(5000) reads log k! up to k = 5717, past the shipped 4096
    # entries, and a Poisson(2000) V solve up to k = 2479
    script = textwrap.dedent("""
        import contextlib, io, sys
        sys.modules["scipy"] = None
        from thinpower import numerics
        from thinpower.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["functional", "--name", "Lambda", "--pmf",
                           '{"family": "poisson", "rate": 5000}']),
                     main(["vpower", "--pmf",
                           '{"family": "poisson", "rate": 2000}'])]
        print(*codes, numerics._grown.cache_info().currsize,
              numerics.log_factorials(5717).base.shape[1])
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1", "8192"]
