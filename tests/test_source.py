"""Rules on the package source itself."""

import ast
from pathlib import Path

import flagconn


PACKAGE = Path(flagconn.__file__).parent


def _nodes():
    """(place, node) for every syntax node of every module of the package."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', '?')}", node


def test_no_module_of_the_package_asserts():
    # python -O strips assert statements, so a check written as one vanishes there;
    # the package raises its own errors instead
    assert [place for place, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_no_array_of_the_package_holds_python_objects():
    # an object array does its arithmetic one Python object at a time: the root keys
    # are int8 coordinate bytes, never Python ints grown past int64
    named = [place for place, node in _nodes()
             if isinstance(node, ast.keyword) and node.arg == "dtype"
             and any(isinstance(n, ast.Name) and n.id == "object"
                     or isinstance(n, ast.Attribute) and n.attr == "object_"
                     or isinstance(n, ast.Constant) and n.value in ("object", "O")
                     for n in ast.walk(node.value))]
    assert named == []
