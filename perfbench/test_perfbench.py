"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def load(name, seed, tmp_path):
    from crcontact.cli import load_config

    path = tmp_path / f"{name}-{seed}.ini"
    path.write_text(workloads.config_text(name, seed))
    return load_config(str(path))


def test_generator_is_deterministic():
    for name in workloads.WORKLOADS:
        assert workloads.config_text(name, 7) == workloads.config_text(name, 7)
        assert workloads.config_text(name, 7) != workloads.config_text(name, 8)


def test_seed_zero_reproduces_the_stated_inputs(tmp_path):
    from crcontact.assembly import LoadSpec
    from crcontact.cli import example_51_config

    assert load("ex51-study", 0, tmp_path) == example_51_config()
    body = load("bodyforce-max-study", 0, tmp_path)
    assert body.loads == LoadSpec(f=(0.0, -0.02), f_time="linear",
                                  g_coeffs=((0.05, 0.0, 0.0), (-0.01, 0.0, 0.0)),
                                  g_time="const", g_sides=("left",), g_a=0.0012)
    assert (body.levels, body.error_mode) == (4, "max")
    assert load("setup-L5", 0, tmp_path).levels == 6


def test_seeds_perturb_loads_within_the_stated_range(tmp_path):
    base = load("ex51-study", 0, tmp_path).loads
    lo, hi = 1 - workloads.PERTURBATION, 1 + workloads.PERTURBATION
    for seed in range(1, 21):
        loads = load("ex51-study", seed, tmp_path).loads
        pairs = [(loads.g_a, base.g_a)] + [
            (c, c0) for row, row0 in zip(loads.g_coeffs, base.g_coeffs) for c, c0 in zip(row, row0)]
        for c, c0 in pairs:
            if c0 == 0.0:
                assert c == 0.0
            else:
                assert lo <= c / c0 <= hi
        assert loads != base


def test_listed_workloads_are_defined_with_the_same_reason():
    for listed in BENCH["workloads"]:
        assert workloads.WORKLOADS[listed["name"]].why == listed["why"]


def test_layer_metrics_self_time_and_nesting():
    def span(i, name, start, end, parent=None, **attrs):
        s = {"run": "r", "id": i, "name": name, "start": start, "end": end, "parent": parent}
        if attrs:
            s["attrs"] = attrs
        return s

    m = spans.layer_metrics([
        span(0, "cli.run_convergence_study", 0.0, 10.0),
        span(1, "solver.march", 1.0, 9.0, 0),
        span(2, "solver.uzawa_step_solve", 2.0, 5.0, 1, iters=3),
        span(3, "solver.SPDFactor.solve", 2.5, 4.5, 2),
        span(4, "solver.uzawa_step_solve", 5.0, 6.0, 1, iters=1),
        span(5, "assembly.assemble_load", 6.0, 8.0, 1),
        span(6, "analysis.inter_mesh_error", 9.0, 9.5, 0),
        span(7, "space.prolongate", 9.1, 9.3, 6),
    ])
    assert m["cli.study_self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert m["solver.self_s"] == pytest.approx((8.0 - 3.0 - 1.0 - 2.0) + (3.0 - 2.0) + 2.0 + 1.0)
    assert m["analysis.error_s"] == pytest.approx(0.5)
    assert m["analysis.self_s"] == pytest.approx(0.3)
    assert m["space.self_s"] == pytest.approx(0.2)
    assert (m["solver.uzawa_iters_total"], m["solver.uzawa_iters_max"]) == (4, 3)
    assert m["solver.solves_per_iter"] == pytest.approx(0.25)
    assert (m["assembly.load_calls"], m["assembly.load_s"]) == (1, pytest.approx(2.0))
    assert m["solver.step_s.p50"] == pytest.approx(1.0)
    assert m["solver.step_s.p99"] == pytest.approx(3.0)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_listed_metrics(trace, section):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCH[section]]
    if trace == 0:
        # the two-level study runs in about a second
        assert result["metrics"]["wall_s"]["value"] < 5.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "ex51-study", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
