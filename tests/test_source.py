import ast
import symtable
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


# every name exported from stallings/__init__.py that no module of the
# package uses, with the reason it stays public
UNUSED_EXPORTS = {
    **dict.fromkeys(
        ["bouquet", "core", "fold_all", "two_core", "subdivide", "unbased_core_morphism",
         "contains", "parse_word"],
        "perfbench's tracer wraps it by name",
    ),
    **dict.fromkeys(
        ["compose_homs", "conjugation_hom", "cyclic_reduce", "preserves_folding"],
        "routing fuzz trials through the case tree will call it",
    ),
    "pi1_basis": "README advertises basis extraction",
    "full_whitehead": "only tests use it",
}


def _global_reads(table: symtable.SymbolTable, top: bool = True) -> set[str]:
    """Names a module reads from its globals, in any scope.

    At module level a name counts when it is referenced; in a function
    or class body only when it is not local there, so a variable that
    shadows a module-level name is no use of it.
    """
    names = {
        s.get_name() for s in table.get_symbols()
        if s.is_referenced() and (top or s.is_global())
    }
    for child in table.get_children():
        names |= _global_reads(child, top=False)
    return names


def test_every_unused_export_says_why_it_stays():
    """An export that no module of the package uses must be listed with a reason.

    Exports are the names ``stallings/__init__.py`` imports; an import
    statement alone is no use.  A listed name that gains a use must
    leave the list, so the list stays exact.
    """
    root = Path(stallings.__file__).parent
    init = ast.parse((root / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(*(
        _global_reads(symtable.symtable(path.read_text(), str(path), "exec"))
        for path in sorted(root.rglob("*.py"))
    ))
    assert UNUSED_EXPORTS.keys() <= exported
    assert sorted(exported - used) == sorted(UNUSED_EXPORTS)
