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
