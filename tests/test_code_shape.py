"""Shape guards for the simulator package.

The full-system run used to be one closure of well over a thousand
lines, with a fluid driver fed by dozens of keyword arguments handed
out of it.  These checks keep it decomposed: no function or method in
``src/repro/sim/`` may grow past ``MAX_FUNCTION_LINES`` lines (nested
functions count toward their enclosing function too), and the fluid
driver takes the run state rather than a bag of closures.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SIM = Path(__file__).resolve().parent.parent / "src" / "repro" / "sim"

#: Longest function or method (first to last line, docstring included).
MAX_FUNCTION_LINES = 200


def _functions(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _modules() -> list[Path]:
    return sorted(SIM.glob("*.py"))


def test_the_sim_package_is_found():
    names = {path.name for path in _modules()}
    assert "full_system.py" in names


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.name)
def test_no_function_is_longer_than_the_limit(path):
    too_long = [
        f"{node.name} (line {node.lineno}): "
        f"{node.end_lineno - node.lineno + 1} lines"
        for node in _functions(path)
        if node.end_lineno - node.lineno + 1 > MAX_FUNCTION_LINES
    ]
    assert not too_long, (
        f"{path.name} has functions over {MAX_FUNCTION_LINES} lines: {too_long}"
    )


def test_the_fluid_driver_takes_the_run_state():
    (driver,) = [
        node
        for node in _functions(SIM / "full_system.py")
        if node.name == "_run_segments"
    ]
    args = driver.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    assert names == ["self", "run"]
    assert args.vararg is None and args.kwarg is None
