"""The benchmark reaches crcontact by name from outside the package.

``perfbench/spans.py`` lists traced functions in ``TRACED`` ("name" or
"Class.method" per layer module); its ``Tracer.install`` raises on a name
that no longer exists, which breaks the traced benchmark run.
``perfbench/worker.py`` imports crcontact names and reaches others through
module aliases; a deleted one fails every benchmark run. Each run parses
the INI text of ``perfbench/workloads.py::config_text``; a config rule that
refuses it fails the run. The files are loaded by path and only read.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from crcontact.cli import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"
WORKLOADS = PERFBENCH / "workloads.py"
MISSING = object()


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_by_path("perfbench_spans", SPANS)
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


@pytest.mark.parametrize("seed", [0, 3])
def test_every_workload_config_loads(tmp_path, seed):
    workloads = load_by_path("perfbench_workloads", WORKLOADS)
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.config_text(name, seed))
        assert load_config(str(path)).levels == workloads.WORKLOADS[name].levels
