"""The benchmark reaches crcontact by name from outside the package.

``perfbench/spans.py`` lists traced functions in ``TRACED`` ("name" or
"Class.method" per layer module); its ``Tracer.install`` raises on a name
that no longer exists, which breaks the traced benchmark run.
``perfbench/worker.py`` imports crcontact names and reaches others through
module aliases; a deleted one fails every benchmark run. Each run parses
the INI text of ``perfbench/workloads.py::config_text``; a config rule that
refuses it fails the run, and so does a renamed ``ProblemConfig`` field
that the worker reads (``config.material``, ``config.loads.g_a``, ...).
The traced run's step metrics count the spans of ``uzawa_step_solve``, one
per time step, and its solve metrics those of ``SPDFactor.solve``, which
``march`` calls for its setup solves. The files are loaded by path and only
read.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from crcontact.cli import example_51_config, load_config, run_convergence_study

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


def attribute_chains(tree):
    """(name, [attr, ...]) for every attribute chain rooted at a plain name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            yield base.id, chain[::-1]


def resolve(obj, chain):
    for part in chain:
        obj = getattr(obj, part, MISSING)
    return obj


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
    for name, chain in attribute_chains(tree):
        if aliases.get(name, MISSING) is MISSING:
            continue
        reached += 1
        if resolve(aliases[name], chain) is MISSING:
            missing.append(".".join([name] + chain))
    assert {"cli", "cr_space", "solver"} <= aliases.keys() and reached, (aliases, reached)
    assert not missing, missing


@pytest.mark.parametrize("seed", [0, 3])
def test_every_workload_config_loads(tmp_path, seed):
    workloads = load_by_path("perfbench_workloads", WORKLOADS)
    # the worker names the loaded config `config`, and `config_` inside the
    # solve_level wrapper
    chains = [chain for name, chain in attribute_chains(ast.parse(WORKER.read_text()))
              if name in ("config", "config_")]
    assert {"material", "loads", "domain"} <= {chain[0] for chain in chains}, chains
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.config_text(name, seed))
        config = load_config(str(path))
        assert config.levels == workloads.WORKLOADS[name].levels
        missing = [".".join(["config"] + chain) for chain in chains
                   if resolve(config, chain) is MISSING]
        assert not missing, (name, missing)


def test_traced_study_steps_and_setup_solves(monkeypatch):
    spans = load_by_path("perfbench_spans", SPANS)
    # let monkeypatch restore every name the tracer rebinds
    for layer in ("",) + tuple(f".{name}" for name in spans.LAYERS):
        module = importlib.import_module(f"crcontact{layer}")
        for attr, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, attr, value)
    for layer, names in spans.TRACED.items():
        for cls_name, method in (name.split(".") for name in names if "." in name):
            cls = getattr(importlib.import_module(f"crcontact.{layer}"), cls_name)
            monkeypatch.setattr(cls, method, vars(cls)[method])
    tracer = spans.Tracer("contract")
    tracer.install()
    config = example_51_config()
    run_convergence_study(dataclasses.replace(config, levels=2))
    marches = [s for s in tracer.spans if s["name"] == "solver.march"]
    assert len(marches) == 2
    for level, march in enumerate(marches):
        children = [s["name"] for s in tracer.spans if s["parent"] == march["id"]]
        assert children.count("solver.uzawa_step_solve") == config.N * 2**level
        # one contact-response block (2 and 4 contact edges) and the load pair
        assert children.count("solver.SPDFactor.solve") == 2
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["solver.step_calls"] == 3 * config.N
    assert metrics["solver.spd_solves"] == 4
    assert (metrics["solver.uzawa_iters_total"], metrics["solver.uzawa_iters_max"]) == (244, 77)
