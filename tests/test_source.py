import ast
from pathlib import Path

import stallings


def test_no_assert_statements():
    """Invariant checks raise named errors; ``python -O`` strips asserts."""
    root = Path(stallings.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_generator_tuple_comparisons():
    """Whether two alphabets are one is decided by ``Alphabet`` alone: by identity."""
    root = Path(stallings.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "generators"
            for side in (node.left, *node.comparators)
        )
    ]
    assert not found, found


def test_sources_parse_as_python_3_10():
    """Every module, test and benchmark file parses with Python 3.10's grammar.

    The oldest supported Python is 3.10; this checks syntax only.
    """
    repo = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (repo / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
