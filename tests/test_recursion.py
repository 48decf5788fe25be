"""Every function in the package that calls itself, each with its bound."""

import ast
from pathlib import Path

import tgmenger

# Large or long inputs must fail with a TemporalGraphError, never a
# RecursionError, so each recursion below is bounded by an input cap the
# package enforces; a new one needs a deliberate edit here.
BOUNDED_RECURSIONS = {
    # One level per pattern vertex: at most 6 (_PATTERN_MAX_VERTICES).
    ("core", "assign"),
    # One level per pattern link: at most 12 (_PATTERN_MAX_EDGES).
    ("core", "embed_links"),
    # One level per slot of _label_patterns: at most 8 edges.
    ("oracles", "partitions"),
    # One level per path vertex in _structural_paths: at most 8, the
    # vertex cap canonical_form enforces before the sweep runs.
    ("oracles", "go"),
}


def calls_itself(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                return True
    return False


def test_every_recursion_is_a_bounded_one():
    found = set()
    for path in sorted(Path(tgmenger.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls_itself(node):
                found.add((path.stem, node.name))
    assert found == BOUNDED_RECURSIONS
