"""The benchmark reaches crcontact by name from outside the package.

``perfbench/spans.py`` lists traced functions in ``TRACED`` ("name" or
"Class.method" per layer module); its ``Tracer.install`` raises on a name
that no longer exists, which breaks the traced benchmark run.
``perfbench/worker.py`` imports crcontact names and reaches others through
module aliases; a deleted one fails every benchmark run. Both files are
loaded by path and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"
MISSING = object()


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.TRACED.items():
        home = importlib.import_module(f"crcontact.{layer}")
        for name in names:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert spans.TRACED and not missing, missing


def test_every_worker_name_resolves():
    tree = ast.parse(WORKER.read_text())
    # local name -> crcontact object, from the worker's imports
    aliases = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "crcontact":
                    aliases[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crcontact":
            home = importlib.import_module(node.module)
            for a in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{a.name}")
                except ImportError:
                    obj = getattr(home, a.name, MISSING)
                if obj is MISSING:
                    missing.append(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = obj
    # every attribute chain rooted at such a name, e.g. cr_space.CRFunction.zero
    reached = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not (isinstance(base, ast.Name) and aliases.get(base.id, MISSING) is not MISSING):
            continue
        obj = aliases[base.id]
        for part in reversed(chain):
            obj = getattr(obj, part, MISSING)
        reached += 1
        if obj is MISSING:
            missing.append(".".join([base.id] + chain[::-1]))
    assert {"cli", "cr_space", "solver"} <= aliases.keys() and reached, (aliases, reached)
    assert not missing, missing
