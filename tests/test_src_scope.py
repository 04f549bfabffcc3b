"""`src/sfqn` holds only the system: every module-level function and class
there is read by training, evaluation, the CLI or the benchmark harness.
Code that only tests call (oracles, finite-difference checks, reference
paths) lives in `tests/oracles.py`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYSTEM = sorted((ROOT / "src" / "sfqn").glob("*.py"))
READERS = SYSTEM + sorted((ROOT / "perfbench").glob("*.py"))


def _references(tree: ast.AST):
    """Names a piece of code reads: names, attributes, imported names and
    string constants (the harness patches some ops by their name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_definition_is_read_by_the_system():
    # one entry per top-level statement, so a definition that only refers
    # to itself (recursion, its own docstring) is not read
    statements = [(path, stmt, set(_references(stmt)))
                  for path in READERS
                  for stmt in ast.parse(path.read_text()).body]
    unread = []
    for path, stmt, _ in statements:
        if path not in SYSTEM or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in refs for _, other, refs in statements
                   if other is not stmt):
            unread.append(f"{path.stem}.{stmt.name}")
    assert unread == [], f"only tests read {unread}; move them to tests/"
