"""Seeded workload definitions: each workload becomes one crcontact INI config.

Every workload uses the square of the ``example-5.1`` preset: (0,4)^2,
clamped on the right, traction on the left, Tresca contact on the bottom.
The seed only perturbs the load: seed 0 reproduces the inputs below
exactly, and any other seed scales ``g_a`` and every nonzero traction
coefficient by its own factor drawn uniformly from [1 - PERTURBATION,
1 + PERTURBATION]. Over that range the total Uzawa iteration count of
``ex51-study`` moves by about 1%, so seeds change the inputs without
changing how much work a run does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

PERTURBATION = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark input: what to run, on which loads, and why."""

    kind: str  # "study": run_convergence_study; "setup": one level without the march
    why: str
    levels: int
    gx: tuple[float, float, float]
    gy: tuple[float, float, float]
    g_time: str = "linear"
    g_a: float = 0.0012
    f: tuple[float, float] = (0.0, 0.0)
    f_time: str = "const"
    error_mode: str = "final"


WORKLOADS = {
    # The ROADMAP's end-to-end reference (5 levels, 26..6,176 free DOFs,
    # 40..640 steps). The Uzawa inner solves of the L4 march dominate it;
    # the per-step load assembly is about 13%.
    "ex51-study": Workload(
        kind="study",
        why="example-5.1 study L0-L4: the reference run, dominated by the Uzawa inner solves",
        levels=5, gx=(0.1, 0.0, -0.02), gy=(-0.01, 0.0, 0.0),
    ),
    # A ramped body force makes assemble_load run its per-triangle loop on
    # every step, so the load layer dominates; error_mode=max makes the
    # analysis layer evaluate the energy norm at every coarse time node.
    # Not listed in BENCHMARK.json: its 7 s runs spread too much between
    # runs on a shared 2-core machine (interquartile range 0.34 of the
    # median over 10 seeds). Run it by name for per-layer numbers.
    "bodyforce-max-study": Workload(
        kind="study",
        why="ramped body force and max-in-time errors, L0-L3: load assembly and analysis dominate",
        levels=4, gx=(0.05, 0.0, 0.0), gy=(-0.01, 0.0, 0.0), g_time="const",
        f=(0.0, -0.02), f_time="linear", error_mode="max",
    ),
    # Everything one refinement level costs except the march, at L5
    # (24,640 free DOFs): mesh chain, spaces, stiffness, factorization,
    # automatic rho-tilde, prolongation and the norm evaluator. The march
    # is left out because at L5 it takes minutes per run.
    "setup-L5": Workload(
        kind="setup",
        why="per-level setup at L5 without the march: stiffness, factorization, rho-tilde, prolongation, norms",
        levels=6, gx=(0.1, 0.0, -0.02), gy=(-0.01, 0.0, 0.0),
    ),
    # Two levels of the reference study; runs in about a second. Used by
    # the benchmark's own tests, not listed in BENCHMARK.json.
    "smoke": Workload(
        kind="study",
        why="example-5.1 study L0-L1: a quick end-to-end check of the benchmark itself",
        levels=2, gx=(0.1, 0.0, -0.02), gy=(-0.01, 0.0, 0.0),
    ),
}


def perturbed(workload: Workload, seed: int) -> Workload:
    """The workload's loads for this seed; seed 0 returns them unchanged."""
    if seed == 0:
        return workload
    rng = random.Random(seed)

    def scale(value: float) -> float:
        # draw for every coefficient, zero or not, so each keeps its stream position
        factor = 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
        return value * factor if value != 0.0 else 0.0

    gx = tuple(scale(c) for c in workload.gx)
    gy = tuple(scale(c) for c in workload.gy)
    g_a = scale(workload.g_a)
    return replace(workload, gx=gx, gy=gy, g_a=g_a)


def config_text(name: str, seed: int) -> str:
    """The INI config crcontact receives for workload ``name`` and ``seed``."""
    w = perturbed(WORKLOADS[name], seed)

    def floats(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    return "\n".join([
        f"# crcontact benchmark workload {name}, seed {seed}",
        "[domain]",
        "x_min = 0", "x_max = 4", "y_min = 0", "y_max = 4",
        "left = neumann", "right = dirichlet", "bottom = contact", "top = neumann",
        "",
        "[material]",
        "E = 200", "nu = 0.3", "plane = strain",
        "",
        "[loads]",
        f"f = {floats(w.f)}",
        f"f_time = {w.f_time}",
        f"gx = {floats(w.gx)}",
        f"gy = {floats(w.gy)}",
        f"g_time = {w.g_time}",
        "g_sides = left",
        f"g_a = {w.g_a!r}",
        "",
        "[solver]",
        "rho = 10", "rho_tilde = auto", "eps = 1e-8", "max_iter = 10000",
        "",
        "[study]",
        "T = 1", "N = 40", "n = 2",
        f"levels = {w.levels}",
        f"error_mode = {w.error_mode}",
        "",
    ])


def expected_dofs(n: int) -> tuple[int, int]:
    """Closed-form (reported, free) DOF counts on an n-by-n grid of the square.

    The grid has 3n^2 + 2n edges; the n clamped edges on the right carry no
    DOFs and the n contact edges on the bottom lose their normal component.
    """
    reported = 2 * (3 * n * n + 2 * n - n)
    return reported, reported - n
