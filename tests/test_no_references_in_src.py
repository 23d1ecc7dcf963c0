"""Parity references live in ``tests/oracles/``, never in ``src/repro``.

Production code has one implementation per behaviour.  A reference path
kept beside its fast path (a ``*_slow`` function or method, or the
per-feature CART split search ``best_split_gini``, or the per-series
simulator steps ``_first_order``, ``temperatures``, ``assemble`` and
``apply_glitches`` that the release's filter passes replaced) or a switch
between the two (``fused_backward``) fails this walk over the package's
syntax trees.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _banned(name: str) -> bool:
    return (name in ("fused_backward", "best_split_gini", "_sigmoid",
                     "adam_step_allocating", "_first_order", "apply_glitches",
                     "assemble", "temperatures")
            or name.endswith("_slow"))


def _defined_names(node: ast.AST):
    """``(lineno, name)`` of what ``node`` defines: a function or method,
    a class attribute, or an assigned attribute (``obj.name = …``)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.lineno, node.name
    elif isinstance(node, ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name):
                    yield stmt.lineno, t.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        yield node.lineno, node.attr


def _offences(tree: ast.AST, path: Path) -> list[str]:
    rel = path.relative_to(SRC.parent)
    return [f"{rel}:{lineno}: {name}"
            for node in ast.walk(tree)
            for lineno, name in _defined_names(node) if _banned(name)]


def test_no_reference_paths_or_switches_in_src():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "nn" / "layers" / "rnn.py" in paths
    offences = []
    for path in paths:
        offences += _offences(ast.parse(path.read_text(), str(path)), path)
    assert offences == [], "move these to tests/oracles/:\n" + \
        "\n".join(offences)


def test_walk_flags_each_banned_form():
    snippet = (
        "class A:\n"
        "    fused_backward: bool = True\n"
        "    def _forward_slow(self):\n"
        "        def backward_slow(g):\n"
        "            pass\n"
        "        self.fused_backward = False\n"
        "def predict_slow():\n"
        "    pass\n"
        "def best_split_gini(x, y, leaf):\n"
        "    pass\n"
    )
    found = _offences(ast.parse(snippet), SRC / "snippet.py")
    assert sorted(f.split(": ")[1] for f in found) == [
        "_forward_slow", "backward_slow", "best_split_gini",
        "fused_backward", "fused_backward", "predict_slow",
    ]


# ``python -O`` strips ``assert`` statements, so an invariant written as
# one silently stops being checked.  Production code raises instead.
def _asserts(tree: ast.AST, path: Path) -> list[str]:
    rel = path.relative_to(SRC.parent)
    return [f"{rel}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_src():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        offences += _asserts(ast.parse(path.read_text(), str(path)), path)
    assert offences == [], "raise explicitly instead of assert:\n" + \
        "\n".join(offences)


def test_assert_walk_flags_nested_asserts():
    snippet = (
        "assert x\n"
        "def f():\n"
        "    while True:\n"
        "        assert not queue, 'left queued'\n"
        "msg = 'assert in a string is fine'\n"
    )
    assert _asserts(ast.parse(snippet), SRC / "snippet.py") == [
        "repro/snippet.py:1", "repro/snippet.py:4"]
