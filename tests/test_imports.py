"""The package's modules share no private name.

A leading underscore marks a name as its module's own, so no module of
``gue_gap_lab`` imports one from another.  Tests and tools may still reach
the route passes this way.
"""

import ast
from pathlib import Path

import gue_gap_lab

PACKAGE = Path(gue_gap_lab.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("gue_gap_lab")):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
