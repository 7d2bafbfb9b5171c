"""Package structure: the crcontact modules meet only through public names, each with a caller.

And the CI workflow installs exactly the third-party modules that the tests
import, which are the packages pyproject.toml declares, and the package data
holds every preset file.
"""

import ast
import builtins
import fnmatch
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crcontact"
PERFBENCH = ROOT / "perfbench"
# the tests' oracles stay independent of the code they check
ORACLES = ROOT / "tests" / "oracles.py"


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(SRC.glob("*.py")) + [ORACLES]
    assert len(sources) > 2
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "crcontact"):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert not found, found


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
    assert not unused, sorted(unused)

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


# stored though nothing outside the tests reads it: values kept to recover from a fault
FAULT_STATE = {"last_lam": "UzawaError's last multiplier iterate, for a caller to resume from"}


def _is_dataclass(decorator) -> bool:
    decorator = decorator.func if isinstance(decorator, ast.Call) else decorator
    return "dataclass" in (getattr(decorator, "id", ""), getattr(decorator, "attr", ""))


def test_all_stored_state_is_read_beyond_the_tests():
    # a dataclass field or a self. attribute counts as read only where the
    # package or the harness loads it as an attribute
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench_trees = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    read = {node.attr for tree in trees + bench_trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = set()
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if any(map(_is_dataclass, cls.decorator_list)):
            stored.update(node.target.id for node in cls.body
                          if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
        stored.update(node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self")
    assert len(stored) > 50
    unread = stored - read
    assert unread == set(FAULT_STATE), sorted(unread ^ set(FAULT_STATE))


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


# a Domain's rectangle: its bounds and the tolerance of every test against them
RECTANGLE = {"x_min", "x_max", "y_min", "y_max", "tol"}


def test_only_mesh_reads_the_rectangle():
    # the mesh owns the geometry: it keeps every vertex in the rectangle, names
    # each boundary edge's side, and other modules read the side, not the bounds
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mesh.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in RECTANGLE:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
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


WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _declared(text: str, key: str) -> set[str]:
    """The package names of pyproject.toml's list ``key = [...]``, without versions."""
    items = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S)[1]
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', items))


def test_ci_installs_every_third_party_module_the_tests_import():
    # read as plain text: CI has no YAML parser before its install step runs,
    # and tomllib needs Python 3.11
    installs = re.findall(r"pip install ([^\n]+)", WORKFLOW.read_text())
    assert len(installs) == 1, installs
    installed = set(installs[0].split())
    tests = sorted((ROOT / "tests").glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    local = {path.stem for path in tests} | {SRC.name}
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert {"numpy", "pytest", "crcontact", "conftest"} <= imported
    third_party = imported - local - set(sys.stdlib_module_names)
    # each package here installs the module of its own name
    assert installed == third_party, sorted(installed ^ third_party)
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = _declared(pyproject, "dependencies") | _declared(pyproject, "test")
    assert declared == installed, sorted(declared ^ installed)


def test_every_preset_file_is_package_data_and_the_readme_writes_out_example_51():
    # read as plain text, like the workflow: tomllib needs Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    patterns = re.findall(r'"([^"]+)"', re.search(r"^crcontact = \[(.*)\]$", section, re.M)[1])
    presets = sorted(path.name for path in (SRC / "presets").iterdir())
    assert "example-5.1.ini" in presets
    unshipped = [name for name in presets
                 if not any(fnmatch.fnmatchcase(f"presets/{name}", p) for p in patterns)]
    assert not unshipped, unshipped
    readme = (ROOT / "README.md").read_bytes().split(b"```ini\n", 1)[1].split(b"```", 1)[0]
    assert readme == (SRC / "presets" / "example-5.1.ini").read_bytes()
