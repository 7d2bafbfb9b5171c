"""Configuration-driven experiment runner: single solves and refinement studies.

Config files are flat INI (key = value in [domain], [material], [loads],
[solver], [study] sections); the built-in preset ``example-5.1`` encodes a
clamped square pressed against a rigid foundation under a linearly ramped
traction.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from crcontact.analysis import ConvergenceRow, EnergyNormEvaluator
from crcontact.assembly import LoadSpec, assemble_stiffness
from crcontact.material import MaterialModel
from crcontact.mesh import (
    BoundaryLabel,
    BoundarySegment,
    Domain,
    Mesh,
    MeshError,
    generate_structured,
    refine_uniform,
)
from crcontact.solver import (
    SolverError,
    TimeGrid,
    UzawaConfig,
    UzawaError,
    march,
)
from crcontact.space import build_space, prolongate


class ConfigError(ValueError):
    """Raised for invalid or inconsistent run configuration."""


@dataclass
class ProblemConfig:
    """Everything needed to run a solve or a refinement study."""

    domain: Domain
    E: float
    nu: float
    plane: str
    loads: LoadSpec
    T: float
    N: int  # time steps on the coarsest level
    n: int  # grid subdivisions on the coarsest level
    levels: int
    rho: float
    eps: float = 1e-8
    max_iter: int = 10000
    error_mode: str = "final"  # or "max" over shared time nodes

    def __post_init__(self):
        # the time grid, the Uzawa parameters and the material state their
        # own rules; only the rules of this config are checked here
        problems = []
        for section, build in (("study", lambda: TimeGrid(self.T, self.N)),
                               ("solver", lambda: self.uzawa),
                               ("material", lambda: self.material)):
            try:
                build()
            except ValueError as exc:
                problems.append(f"{section}: {exc}")
        if self.n < 1:
            problems.append("study: n must be at least 1")
        if self.levels < 1:
            problems.append("study: levels must be at least 1")
        if self.error_mode not in ("final", "max"):
            problems.append("study: error_mode must be 'final' or 'max'")
        if self.rho <= 0:
            problems.append("solver: rho must be positive")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def material(self) -> MaterialModel:
        return MaterialModel.from_engineering(self.E, self.nu, self.plane)

    @property
    def uzawa(self) -> UzawaConfig:
        return UzawaConfig(eps=self.eps, max_iter=self.max_iter)


def example_51_config() -> ProblemConfig:
    """Clamped square with Tresca contact on the bottom side.

    Square (0,4)^2, clamped on the right, ramped traction on the left,
    traction-free top, contact with friction bound 0.0012 on the bottom.
    """
    domain = Domain.rectangle(
        0.0, 4.0, 0.0, 4.0,
        left=BoundaryLabel.NEUMANN,
        right=BoundaryLabel.DIRICHLET,
        bottom=BoundaryLabel.CONTACT,
        top=BoundaryLabel.NEUMANN,
    )
    loads = LoadSpec(
        f=(0.0, 0.0),
        g_coeffs=((0.1, 0.0, -0.02), (-0.01, 0.0, 0.0)),  # (0.02(5-y), -0.01) per unit time
        g_time="linear",
        g_sides=("left",),
        g_a=0.0012,
    )
    return ProblemConfig(
        domain=domain, E=200.0, nu=0.3, plane="strain", loads=loads,
        T=1.0, N=40, n=2, levels=5, rho=10.0, eps=1e-8, max_iter=10000,
    )


PRESETS = {"example-5.1": example_51_config}

_LABELS = {
    "dirichlet": BoundaryLabel.DIRICHLET,
    "neumann": BoundaryLabel.NEUMANN,
    "contact": BoundaryLabel.CONTACT,
}


def load_config(path: str) -> ProblemConfig:
    """Parse an INI config file into a validated ProblemConfig.

    A key that is not read is an error, so a misspelled key cannot fall
    back to its default unnoticed.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: N (time steps) vs n (grid)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    used = set()

    def fetch(section, key, conv=str, default=None):
        used.add((section, key))
        if not parser.has_option(section, key):
            if default is not None:
                return default
            raise ConfigError(f"{section}: missing required key {key!r}")
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc

    def floats(raw):
        return tuple(float(x) for x in raw.split())

    try:
        x_min = fetch("domain", "x_min", float)
        x_max = fetch("domain", "x_max", float)
        y_min = fetch("domain", "y_min", float)
        y_max = fetch("domain", "y_max", float)
        if parser.has_option("domain", "segments"):
            segs = []
            for line in fetch("domain", "segments").strip().splitlines():
                try:
                    side, lo, hi, label = line.split()
                    segs.append(BoundarySegment(side, float(lo), float(hi),
                                                _LABELS[label.lower()]))
                except (ValueError, KeyError) as exc:  # MeshError is a ValueError
                    raise ConfigError(f"domain.segments: bad line {line.strip()!r}: {exc!r}") from exc
            domain = Domain(x_min, x_max, y_min, y_max, tuple(segs))
        else:
            sides = {s: fetch("domain", s, lambda r: _LABELS[r.lower()])
                     for s in ("left", "right", "bottom", "top")}
            domain = Domain.rectangle(x_min, x_max, y_min, y_max, **sides)
    except MeshError as exc:
        raise ConfigError(f"domain: {exc}") from exc

    f = fetch("loads", "f", floats, default=(0.0, 0.0))
    gx = fetch("loads", "gx", floats, default=(0.0, 0.0, 0.0))
    gy = fetch("loads", "gy", floats, default=(0.0, 0.0, 0.0))
    if len(f) != 2 or len(gx) != 3 or len(gy) != 3:
        raise ConfigError("loads: f needs 2 entries, gx and gy need 3 (c0 cx cy)")
    g_sides_raw = fetch("loads", "g_sides", str, default="all")
    g_sides = None if g_sides_raw == "all" else tuple(g_sides_raw.split())
    try:
        loads = LoadSpec(
            f=f,
            f_time=fetch("loads", "f_time", str, default="const"),
            g_coeffs=(gx, gy),
            g_time=fetch("loads", "g_time", str, default="const"),
            g_sides=g_sides,
            g_a=fetch("loads", "g_a", float, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"loads: {exc}") from exc

    # rho_tilde is computed; existing files say 'auto', and a number is refused, not ignored
    if fetch("solver", "rho_tilde", default="auto") != "auto":
        raise ConfigError("solver.rho_tilde: the step is computed; only 'auto' is accepted")

    fields = dict(
        E=fetch("material", "E", float),
        nu=fetch("material", "nu", float),
        plane=fetch("material", "plane", str, default="strain"),
        T=fetch("study", "T", float),
        N=fetch("study", "N", int),
        n=fetch("study", "n", int),
        levels=fetch("study", "levels", int, default=1),
        rho=fetch("solver", "rho", float, default=10.0),
        eps=fetch("solver", "eps", float, default=1e-8),
        max_iter=fetch("solver", "max_iter", int, default=10000),
        error_mode=fetch("study", "error_mode", str, default="final"),
    )
    unread = [f"{section}.{key}" for section in parser.sections()
              for key in parser[section] if (section, key) not in used]
    if unread:
        raise ConfigError(f"unknown key(s) {', '.join(unread)}")
    return ProblemConfig(domain=domain, loads=loads, **fields)


# -- runners ---------------------------------------------------------------

def build_meshes(config: ProblemConfig, levels: int) -> list[Mesh]:
    """Refinement chain: base structured grid plus uniform refinements."""
    meshes = [generate_structured(config.domain, config.n)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def solve_level(config: ProblemConfig, mesh: Mesh, level: int,
                log=None) -> tuple:
    """March the fully-discrete scheme on one refinement level."""
    space = build_space(mesh)
    system = assemble_stiffness(space, config.material, config.rho)
    grid = TimeGrid(T=config.T, N=config.N * 2**level)
    traj = march(system, config.loads, grid, config.uzawa, log=log)
    return space, system, traj


def run_single(config: ProblemConfig, level: int = 0,
               dump_fields: Optional[str] = None, log=None) -> dict:
    """Solve a single level and return a summary dictionary."""
    if level < 0:
        raise ConfigError(f"solve: level must be nonnegative, got {level}")
    meshes = build_meshes(config, level + 1)
    space, _, traj = solve_level(config, meshes[-1], level, log=log)
    u = traj.final
    values = _edge_fields(space, u)
    summary = {
        "level": level,
        "dof": space.n_dofs_reported,
        "dof_free": space.n_dofs_free,
        "time_steps": traj.grid.N,
        "uzawa_iterations_total": int(sum(traj.uzawa_iters)),
        "ux_min": float(values[:, 2].min()),
        "ux_max": float(values[:, 2].max()),
        "uy_min": float(values[:, 3].min()),
        "uy_max": float(values[:, 3].max()),
    }
    if dump_fields is not None:
        with open(dump_fields, "w") as out:
            for mx, my, ux, uy in values:
                out.write(f"{float(mx)!r} {float(my)!r} {float(ux)!r} {float(uy)!r}\n")
    return summary


def _edge_fields(space, u) -> np.ndarray:
    """Per non-Dirichlet edge: midpoint coordinates and DOF values."""
    keep = (space.dof_x >= 0) | (space.dof_y >= 0)
    padded = np.append(u.coeffs, 0.0)  # -1 picks the trailing zero
    return np.column_stack([space.mesh.midpoints[keep],
                            padded[space.dof_x[keep]], padded[space.dof_y[keep]]])


def run_convergence_study(config: ProblemConfig, log=None) -> list[ConvergenceRow]:
    """Solve all levels and compute inter-mesh energy-norm errors.

    Mesh size and time step halve together level to level. The error on
    row i compares levels i-1 and i; orders start on the third row.
    """
    if config.levels < 2:
        raise ConfigError("study: need at least 2 levels for a convergence study")
    meshes = build_meshes(config, config.levels)
    previous = None  # the previous level's displacements at the nodes it shares
    rows: list[ConvergenceRow] = []
    for level, mesh in enumerate(meshes):
        try:
            space, _, traj = solve_level(config, mesh, level, log=log)
        except (SolverError, UzawaError) as exc:
            exc.args = (f"level {level}: {exc}",) + exc.args[1:]
            raise
        grid = traj.grid
        # the nodes shared with the next level: the last one, or every one
        nodes = traj.displacements if config.error_mode == "max" else [traj.final]
        del traj  # in final mode, u(T) is all the next level reads
        error = order = None
        if previous is not None:
            # the fine grid has twice the steps: its even nodes are the coarse ones
            norm = EnergyNormEvaluator(space, config.material, config.rho)
            error = max(norm(prolongate(uc, space) - uf)
                        for uc, uf in zip(previous, nodes[::2], strict=True))
            if rows[-1].error:
                order = float(np.log2(rows[-1].error / error))
        previous = nodes
        rows.append(ConvergenceRow(N=grid.N, h=1.0 / (config.n * 2**level), k=grid.k,
                                   dof=space.n_dofs_reported, error=error, order=order))
    return rows


def write_csv(rows: list[ConvergenceRow], path) -> None:
    """Emit the study table; floats keep full precision for round-trips."""
    with open(path, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["N", "h", "k", "dof", "error", "order"])
        for r in rows:
            writer.writerow([
                r.N, repr(r.h), repr(r.k), r.dof,
                "" if r.error is None else repr(r.error),
                "" if r.order is None else repr(r.order),
            ])


def format_table(rows: list[ConvergenceRow]) -> str:
    lines = [f"{'N':>6} {'h':>12} {'k':>12} {'dof':>8} {'error':>14} {'order':>8}"]
    for r in rows:
        err = "-" if r.error is None else f"{r.error:.4e}"
        order = "-" if r.order is None else f"{r.order:.4f}"
        lines.append(f"{r.N:>6} {r.h:>12.6g} {r.k:>12.6g} {r.dof:>8} {err:>14} {order:>8}")
    return "\n".join(lines)


# -- entry point -------------------------------------------------------------

def _config_from_args(args) -> ProblemConfig:
    if args.preset is not None:
        return PRESETS[args.preset]()
    if args.config is None:
        raise ConfigError("either --config or --preset is required")
    return load_config(args.config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crcontact",
        description="CR finite element solver for quasi-static Tresca contact")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    common.add_argument("--preset", choices=sorted(PRESETS))
    common.add_argument("--verbose", action="store_true")

    p_solve = sub.add_parser("solve", parents=[common], help="run a single level")
    p_solve.add_argument("--level", type=int, default=0)
    p_solve.add_argument("--dump-fields", default=None)

    p_study = sub.add_parser("study", parents=[common], help="run a refinement study")
    p_study.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None

    try:
        config = _config_from_args(args)
        if args.command == "solve":
            summary = run_single(config, level=args.level,
                                 dump_fields=args.dump_fields, log=log)
            for key, value in summary.items():
                print(f"{key}: {value}")
        else:
            rows = run_convergence_study(config, log=log)
            print(format_table(rows))
            if args.out is not None:
                write_csv(rows, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, UzawaError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if isinstance(exc, UzawaError):
            tail = ", ".join(f"{incr:.3e}" for incr in (exc.history or [])[-5:])
            print(f"  at time step {exc.step}; last increments: {tail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
