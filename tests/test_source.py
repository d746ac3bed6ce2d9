"""Rules on the package source itself."""

import ast
from pathlib import Path

import flagconn


def test_no_module_of_the_package_asserts():
    # python -O strips assert statements, so a check written as one vanishes there;
    # the package raises its own errors instead
    package = Path(flagconn.__file__).parent
    asserts = [f"{path.relative_to(package)}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert len(list(package.rglob("*.py"))) >= 9 and asserts == []
