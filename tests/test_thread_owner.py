"""Only fermigap._blas decides how many OpenBLAS threads fermigap's work uses.

Its threads_for and restore_threads are the only code that sets a library's
thread count (OpenBlas.set) or reads the counts owed (_blas._owed).  A
module that set a count itself would bypass the rule that a library left on
one thread stays there until work above order 512, and could start a pool
that a fork shut down.  No other module names the order that splits the
rule (SINGLE_THREAD_MAX_N) or restore_threads either: work tells
threads_for its order, and _blas alone decides.  Checked on the source, so that a call on a path no
test runs is caught too.
"""

import ast
from pathlib import Path

import fermigap

PACKAGE = Path(fermigap.__file__).resolve().parent
SETTERS = {"threads_for", "restore_threads"}


def thread_uses(tree):
    """(line, enclosing function, what) for each .set(...) call and each
    use of the name _owed in a parsed module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "set":
            found.append((node.lineno, function, "a .set() call"))
        if isinstance(node, ast.Name) and node.id == "_owed" or \
                isinstance(node, ast.Attribute) and node.attr == "_owed":
            found.append((node.lineno, function, "_owed"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def names(tree) -> set[str]:
    """Every name a parsed module uses, reads as an attribute or imports."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_no_module_but_blas_sets_threads():
    others = [path for path in PACKAGE.glob("*.py") if path.name != "_blas.py"]
    assert len(others) > 1
    for path in others:
        tree = ast.parse(path.read_text())
        assert thread_uses(tree) == [], path.name
        assert not names(tree) & {"SINGLE_THREAD_MAX_N", "restore_threads"}, path.name


def test_blas_sets_threads_only_in_its_two_setters():
    uses = thread_uses(ast.parse((PACKAGE / "_blas.py").read_text()))
    assert {what for _, _, what in uses} == {"a .set() call", "_owed"}
    setters = {function for _, function, what in uses if what == "a .set() call"}
    assert setters == SETTERS
    # the owed counts are read at module level (their definition) and in the setters
    assert {function for _, function, what in uses if what == "_owed"} <= SETTERS | {None}
