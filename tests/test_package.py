"""Package structure: the crcontact modules meet only through public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crcontact"


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "crcontact"):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert not found, found
