"""Only fermigap.io.load_document parses a whole text with json.loads.

The loader reads each flat number list in pieces into a float array; one
json.loads of the whole text holds every list as Python floats at once,
about twice the memory tests/test_io.py holds the loader to.  So
load_document runs it only where its walk over the object, or the re-read of
one list, raises, so that every message stays json's.  A second call would
be a second whole-text route that the peak tests might never run.  Checked
on the source, so that a call on a path no test runs is caught too.
"""

import ast
from pathlib import Path

import fermigap

PACKAGE = Path(fermigap.__file__).resolve().parent


def whole_text_parses(tree):
    """(line, enclosing function) for each json.loads or json.load, each
    raw_decode and each name imported from json in a parsed module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (
                node.attr == "raw_decode" or node.attr in ("loads", "load")
                and isinstance(node.value, ast.Name) and node.value.id == "json") or \
                isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_json_loads_runs_once_in_load_document():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    uses = [(path.name, function) for path in modules
            for _, function in whole_text_parses(ast.parse(path.read_text()))]
    assert uses == [("io.py", "load_document")]


def test_the_check_finds_each_form():
    tree = ast.parse("import json\nfrom json import loads\n"
                     "def f(t):\n    return json.loads(t), json.load(t), D().raw_decode(t)\n")
    assert whole_text_parses(tree) == [(2, None), (4, "f"), (4, "f"), (4, "f")]
