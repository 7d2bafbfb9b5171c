"""Package structure: the crcontact modules meet only through public names, each with a caller."""

import ast
import builtins
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

    # a public method or property counts as used only where the package or the
    # harness reads it as an attribute; a bare word, say in a comment, does not
    bench_trees = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    attributes = {node.attr for tree in trees + bench_trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    methods = {(cls.name, fn.name) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    assert len(methods) > 10
    unused_methods = sorted(f"{c}.{m}" for c, m in methods if m not in attributes)
    assert not unused_methods, unused_methods


def _names_a_dof_map(node) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "dof" in name


def _is_sentinel_bound(node) -> bool:
    try:
        return ast.literal_eval(node) in (0, -1)
    except ValueError:
        return False


def test_only_space_reads_the_eliminated_dof_sentinel():
    # an eliminated DOF is -1 in space.py's maps; every other module hands the
    # maps to sparse_from_local or CRFunction.edge_values instead of testing them
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_names_a_dof_map, operands)) and any(map(_is_sentinel_bound, operands)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_two_kinds_of_failure():
    # rejected input is a ValueError (a ConfigError when a config file gave it),
    # a failed solve a SolverError: the CLI's exit codes 1 and 2
    bases = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b) for b in node.bases]

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, bases.get(name, ())))

    exceptions = {name: base for name, base in bases.items() if is_exception(name)}
    assert exceptions == {"ConfigError": ["ValueError"], "SolverError": ["RuntimeError"],
                          "UzawaError": ["SolverError"]}
