"""Spans around crcontact's public functions, and per-layer metrics from them.

Nothing inside the package is instrumented. ``Tracer.install`` replaces each
public function listed in ``TRACED`` with a recording wrapper in every
crcontact module that binds it (so calls between modules are seen too), and
wraps the hot methods of ``SPDFactor`` and ``EnergyNormEvaluator`` on the
class. Spans stay in memory and are written out once, when the run ends.

``layer_metrics`` turns the spans of one run into the per-layer metrics that
BENCHMARK.json lists. It needs only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

LAYERS = ("mesh", "space", "assembly", "solver", "analysis", "cli")

# Public entry points per layer. "Class.method" wraps a method on the class.
# crcontact.material has no hot path and is not traced.
TRACED = {
    "mesh": ("generate_structured", "refine_uniform", "edge_sets"),
    "space": ("build_space", "interpolate_cr", "prolongation_matrix", "prolongate"),
    "assembly": ("assemble_stiffness", "assemble_load", "friction_rhs", "friction_value"),
    "solver": ("SPDFactor.__init__", "SPDFactor.solve", "stable_rho_tilde",
               "uzawa_iterate", "uzawa_step_solve", "march"),
    "analysis": ("EnergyNormEvaluator.__init__", "EnergyNormEvaluator.breakdown",
                 "energy_norm", "inter_mesh_error"),
    "cli": ("load_config", "build_meshes", "solve_level", "run_convergence_study"),
}


def _attrs(name: str, args, result) -> dict:
    """Counts recorded at the boundary where the work happens."""
    if name == "uzawa_step_solve":
        return {"iters": int(result[2])}
    if name in ("generate_structured", "refine_uniform"):
        return {"triangles": int(result.n_triangles)}
    if name == "assemble_stiffness":
        return {"K_nnz": int(result.K.nnz)}
    if name == "SPDFactor.__init__":
        factor = args[0]
        return {"n": int(factor.K.shape[0]), "K_nnz": int(factor.K.nnz),
                "lu_nnz": int(factor.lu.L.nnz + factor.lu.U.nnz)}
    return {}


class Tracer:
    """Records one span per call of a traced function while ``active``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.active = True
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [importlib.import_module("crcontact")] + [
            importlib.import_module(f"crcontact.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"crcontact.{layer}")
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self._wrap(layer, name, getattr(cls, method)))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {"run": self.run_id, "id": len(self.spans), "name": full,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            attrs = _attrs(name, args, result)
            if attrs:
                span["attrs"] = attrs
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one run from its spans.

    A layer's self time is the duration of its spans minus the time their
    direct child spans cover. Totals over a set of names count only the
    outermost spans of that set, so nested calls are not counted twice.
    Metrics of work a workload does not do read 0.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def layer(s) -> str:
        return s["name"].split(".", 1)[0]

    def self_time(s) -> float:
        return dur[s["id"]] - child_time[s["id"]]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names) -> float:
        out = 0.0
        for s in named(*names):
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                out += dur[s["id"]]
        return out

    steps = named("solver.uzawa_step_solve")
    step_s = [dur[s["id"]] for s in steps]
    iters = [s["attrs"]["iters"] for s in steps]
    factors = named("solver.SPDFactor.__init__")
    largest = max(factors, key=lambda s: s["attrs"]["lu_nnz"])["attrs"] if factors else None
    solves = named("solver.SPDFactor.solve")

    m = {
        "mesh.build_s": total("mesh.generate_structured", "mesh.refine_uniform"),
        "mesh.triangles": sum(s["attrs"]["triangles"]
                              for s in named("mesh.generate_structured", "mesh.refine_uniform")),
        "space.build_s": total("space.build_space"),
        "space.prolongation_s": total("space.prolongation_matrix"),
        "assembly.stiffness_s": total("assembly.assemble_stiffness"),
        "assembly.K_nnz": max((s["attrs"]["K_nnz"]
                               for s in named("assembly.assemble_stiffness")), default=0),
        "assembly.load_s": total("assembly.assemble_load"),
        "assembly.load_calls": len(named("assembly.assemble_load")),
        "solver.factor_s": total("solver.SPDFactor.__init__"),
        # computed, not measured: the triangular solves read every L+U entry
        # (8-byte value, 4-byte index), the residual check reads K once, and
        # about six n-vectors of doubles are read or written
        "solver.lu_nnz": largest["lu_nnz"] if largest else 0,
        "solver.solve_bytes": (12 * (largest["lu_nnz"] + largest["K_nnz"]) + 48 * largest["n"]
                               if largest else 0),
        "solver.rho_tilde_s": total("solver.stable_rho_tilde"),
        "solver.spd_solves": len(solves),
        "solver.spd_solve_s": total("solver.SPDFactor.solve"),
        "solver.march_s": total("solver.march"),
        "solver.step_calls": len(steps),
        "solver.step_s.p50": _percentile(step_s, 0.50) if steps else 0.0,
        "solver.step_s.p99": _percentile(step_s, 0.99) if steps else 0.0,
        "solver.uzawa_iters_total": sum(iters),
        "solver.uzawa_iters_max": max(iters, default=0),
        "solver.solves_per_iter": len(solves) / sum(iters) if sum(iters) else 0.0,
        "analysis.norm_setup_s": total("analysis.EnergyNormEvaluator.__init__"),
        "analysis.error_s": total(*(f"analysis.{n}" for n in TRACED["analysis"])),
        "cli.study_self_s": sum(self_time(s) for s in named("cli.run_convergence_study")),
        "trace.spans": len(spans),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = sum(self_time(s) for s in spans if layer(s) == name)
    return m


# Why a per-layer metric reads 0 on a workload that never does that work.
ABSENT = {
    "setup": {
        "solver.march_s": "the march does not run",
        "solver.step_calls": "no Uzawa step runs",
        "solver.step_s.p50": "no Uzawa step runs",
        "solver.step_s.p99": "no Uzawa step runs",
        "solver.uzawa_iters_total": "no Uzawa step runs",
        "solver.uzawa_iters_max": "no Uzawa step runs",
        "solver.solves_per_iter": "no Uzawa iteration runs",
        "cli.study_self_s": "no study runs",
    },
    "study": {},
}
