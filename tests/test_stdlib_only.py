"""The package declares ``dependencies = []``: it may import only the
standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

import refinelab

SOURCES = sorted(Path(refinelab.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "cdt.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
