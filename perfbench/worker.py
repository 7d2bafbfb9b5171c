"""One run of a benchmark workload, in a process of its own.

Usage: python3 perfbench/worker.py JOB.json

The job file names the generated INI config, the workload kind, the mode
("setup": import, parse the config and build the mesh chain, then stop;
"full": the whole workload), the parent's monotonic clock reading taken just
before this process was started, and where to write the result. The worker
reaches crcontact only through its public functions, checks the outputs,
and writes a result JSON: times since process start, its own CPU time and
peak RSS, and the outcome of every correctness check. With ``trace`` set it also records
spans (see spans.py) and writes them when the run ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import workloads

# Normalized violation allowed in the final-step VI residual (criterion 6).
VI_TOL = 1e-6
VI_SAMPLES = 100


def check(checks: dict, name: str, ok: bool, detail: str) -> None:
    checks[name] = {"ok": bool(ok), "detail": detail}


def check_mesh_chain(checks, meshes, n0):
    counts = [m.n_triangles for m in meshes]
    expected = [2 * (n0 * 2**level) ** 2 for level in range(len(meshes))]
    check(checks, "triangles", counts == expected, f"{counts} vs {expected}")


def check_dofs(checks, name, n, reported, free):
    expected = workloads.expected_dofs(n)
    check(checks, name, (reported, free) == expected,
          f"(reported, free) = {(reported, free)} vs {expected} on a {n}x{n} grid")


def check_vi_residual(checks, config, seed, space, K, u_prev, u, k, t):
    """Criterion 6 form at the final step: a(u, v - du) + j(v) - j(du) >= l(v - du)."""
    import numpy as np

    from crcontact.assembly import assemble_load, friction_value
    from crcontact.space import CRFunction

    rng = np.random.default_rng(seed)
    g_a = config.loads.g_a
    du = (u.coeffs - u_prev.coeffs) / k
    load = assemble_load(space, config.loads, t)
    Ku = K @ u.coeffs
    j_du = friction_value(space, g_a, CRFunction(space, du))
    vscale = np.max(np.abs(du)) + 1e-3
    worst = -np.inf
    for _ in range(VI_SAMPLES):
        v = CRFunction(space, vscale * rng.standard_normal(space.n_dofs_free))
        a_term = float(Ku @ (v.coeffs - du))
        j_v = friction_value(space, g_a, v)
        l_term = float(load @ (v.coeffs - du))
        residual = a_term + j_v - j_du - l_term
        worst = max(worst, -residual / (abs(a_term) + j_v + j_du + abs(l_term)))
    check(checks, "vi_residual", worst <= VI_TOL,
          f"worst normalized violation {worst:.3e} over {VI_SAMPLES} test functions (<= {VI_TOL:g})")


def run_study(cli, config, job, result, checks, finish):
    import numpy as np

    inner = cli.solve_level
    marks = {}
    levels = []  # (n, free DOFs, multipliers) per level
    finest = {}

    def observed(config_, mesh, level, log=None):
        marks.setdefault("setup_end", time.monotonic())
        space, system, traj = inner(config_, mesh, level, log=log)
        levels.append((config_.n * 2**level, space.n_dofs_free, traj.multipliers))
        # keep only what the final-step checks need, not the trajectory
        finest.update(space=space, K=system.K, u_prev=traj.displacements[-2],
                      u=traj.final, k=traj.grid.k, t=traj.grid.T)
        return space, system, traj

    cli.solve_level = observed
    try:
        rows = cli.run_convergence_study(config)
    finally:
        cli.solve_level = inner
    end = finish()
    result["setup_s"] = marks["setup_end"] - job["t0"]
    result["wall_s"] = end - job["t0"]

    check(checks, "levels", len(levels) == len(rows) == config.levels,
          f"{len(levels)} levels solved, {len(rows)} rows, {config.levels} configured")
    for level, ((n, free, _), row) in enumerate(zip(levels, rows)):
        check_dofs(checks, f"dofs_L{level}", n, row.dof, free)
    max_lam = max(float(np.max(np.abs(lam))) for _, _, mults in levels for lam in mults)
    check(checks, "multiplier_bound", max_lam <= 1.0, f"max |lambda| {max_lam!r} (<= 1)")
    check_vi_residual(checks, config, job["seed"], **finest)

    errors = [r.error for r in rows[1:]]
    result["errors"] = errors
    check(checks, "errors_decrease",
          all(np.isfinite(e) and e > 0 for e in errors)
          and all(b < a for a, b in zip(errors, errors[1:])),
          "errors " + ", ".join(f"{e:.6e}" for e in errors))
    if job["reference"]:
        with open(job["reference"]) as f:
            ref = json.load(f)
        dofs = [r.dof for r in rows]
        worst = (max(abs(e - r) / r for e, r in zip(errors, ref["errors"]))
                 if len(ref["errors"]) == len(errors) else np.inf)
        check(checks, "reference", dofs == ref["dofs"] and worst <= ref["rtol"],
              f"DOFs {dofs}; worst relative deviation {worst:.3e} from the committed "
              f"errors (<= {ref['rtol']:g})")


def run_level_setup(cli, config, job, result, checks, finish):
    """Every step one refinement level costs except the march, on the finest level."""
    import numpy as np

    from crcontact import analysis, assembly, solver, space as cr_space

    meshes = cli.build_meshes(config, config.levels)
    result["setup_s"] = time.monotonic() - job["t0"]
    level = config.levels - 1
    coarse = cr_space.build_space(meshes[-2])
    fine = cr_space.build_space(meshes[-1])
    system = assembly.assemble_stiffness(fine, config.material, config.rho)
    factor = solver.SPDFactor(system.K)
    k = config.T / (config.N * 2**level)
    rho_tilde = solver.stable_rho_tilde(system, config.loads.g_a, k, factor)
    P = cr_space.prolongation_matrix(coarse, fine)
    load = assembly.assemble_load(fine, config.loads, config.T)
    u = cr_space.CRFunction(fine, factor.solve(load))
    norm = analysis.inter_mesh_error(cr_space.CRFunction.zero(coarse), u,
                                     config.material, config.rho)
    result["wall_s"] = finish() - job["t0"]

    check_mesh_chain(checks, meshes, config.n)
    for lvl, space in ((level - 1, coarse), (level, fine)):
        check_dofs(checks, f"dofs_L{lvl}", config.n * 2**lvl, space.n_dofs_reported,
                   space.n_dofs_free)
    K = system.K
    asym = abs(K - K.T).max()
    check(checks, "stiffness_symmetric", asym <= 1e-12 * abs(K).max(), f"max |K - K^T| {asym:.3e}")
    check(checks, "rho_tilde", np.isfinite(rho_tilde) and rho_tilde > 0, f"rho_tilde {float(rho_tilde)!r}")

    # the prolongation reproduces fields that are linear and vanish where
    # the space constrains them: v = (x - x_max, 0)
    def linear_field(space):
        c = np.zeros(space.n_dofs_free)
        has_x = space.dof_x >= 0
        c[space.dof_x[has_x]] = space.mesh.midpoints[has_x, 0] - config.domain.x_max
        return c

    fine_c = linear_field(fine)
    gap = float(np.max(np.abs(P @ linear_field(coarse) - fine_c)))
    check(checks, "prolongation_linear", gap <= 1e-12 * np.max(np.abs(fine_c)),
          f"max |P v_coarse - v_fine| {gap:.3e}")
    # criterion 8 form: the evaluator's norm equals sqrt(u^T K u)
    quad = float(u.coeffs @ (K @ u.coeffs))
    rel = abs(norm**2 - quad) / quad
    check(checks, "energy_norm", rel <= 1e-10, f"|||u|||^2 vs u^T K u: relative gap {rel:.3e}")


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    result = {"run_id": job["run_id"], "mode": job["mode"], "trace": job["trace"]}
    checks = result["checks"] = {}
    tracer = None
    try:
        import crcontact
        from crcontact import cli

        src = os.path.join(job["root"], "src")
        if not os.path.abspath(crcontact.__file__).startswith(src + os.sep):
            raise RuntimeError(f"crcontact imported from {crcontact.__file__}, not from {src}")
        if job["trace"]:
            import spans

            tracer = spans.Tracer(job["run_id"])
            tracer.install()

        def finish() -> float:
            if tracer is not None:
                tracer.active = False
            times = os.times()
            result["cpu_s"] = times.user + times.system
            return time.monotonic()

        config = cli.load_config(job["config"])
        if job["mode"] == "setup":
            meshes = cli.build_meshes(config, config.levels)
            result["setup_s"] = time.monotonic() - job["t0"]
            check_mesh_chain(checks, meshes, config.n)
        elif job["kind"] == "study":
            run_study(cli, config, job, result, checks, finish)
        else:
            run_level_setup(cli, config, job, result, checks, finish)
    except Exception:
        result["exception"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ok"] = "exception" not in result and all(c["ok"] for c in checks.values())
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w") as out:
        json.dump(result, out, indent=1)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
