"""Package structure: the crcontact modules meet only through public names, each with a caller."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crcontact"
PERFBENCH = ROOT / "perfbench"


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


# public only so that tests can call them: independent checks, not duplication
TEST_ORACLES = {
    "brute_force_vi_oracle": "minimizes a step independently of Uzawa (criterion 5)",
    "broken_h1_seminorm_error": "integrates an exact gradient for the interpolation rates",
}


def test_every_public_name_is_used_beyond_its_unit_test():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    public = set()
    for node in (n for tree in trees for n in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            public.update(t.id for t in targets if isinstance(t, ast.Name))
    # the benchmark harness is a caller of its own, kept outside the package
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unused = {name for name in public - used
              if not name.startswith("_") and not re.search(rf"\b{name}\b", bench)}
    assert unused == set(TEST_ORACLES), sorted(unused)
