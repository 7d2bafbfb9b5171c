"""Configuration-driven experiment runner: single solves and refinement studies.

Config files are flat INI (key = value in [domain], [material], [loads],
[solver], [study] sections), and ``load_config`` is the one way a problem
description becomes a ``ProblemConfig``. A preset is such a file in
``presets/``, named by its stem: ``example-5.1`` is a square clamped on one
side, with frictional contact below and a linearly ramped traction on the
left; ``regular`` clamps three sides and ramps a body force from zero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from crcontact.analysis import ConvergenceRow, EnergyNormEvaluator
from crcontact.assembly import LoadSpec, assemble_stiffness
from crcontact.material import MaterialModel
from crcontact.mesh import (
    SIDES,
    BoundaryLabel,
    BoundarySegment,
    Domain,
    Mesh,
    generate_structured,
    refine_uniform,
)
from crcontact.solver import (
    SolverError,
    TimeGrid,
    UzawaConfig,
    UzawaError,
    is_integer,
    march,
)
from crcontact.space import CRFunction, build_space, prolongation_matrix


class ConfigError(ValueError):
    """Raised for invalid or inconsistent run configuration."""


@dataclass
class ProblemConfig:
    """Everything needed to run a solve or a refinement study."""

    domain: Domain
    material: MaterialModel
    loads: LoadSpec
    T: float
    N: int  # time steps on the coarsest level
    n: int  # grid subdivisions on the coarsest level
    levels: int = 1
    rho: float = 10.0
    uzawa: UzawaConfig = UzawaConfig()
    error_mode: str = "final"  # or "max" over shared time nodes

    def __post_init__(self):
        # the domain, material, loads and Uzawa parameters check their own
        # rules; only the rules of this config are checked here
        problems = []
        try:
            TimeGrid(self.T, self.N)
        except ValueError as exc:
            problems.append(f"study: {exc}")
        if not (is_integer(self.n) and self.n >= 1):
            problems.append("study: n must be an integer of at least 1")
        if not (is_integer(self.levels) and self.levels >= 1):
            problems.append("study: levels must be an integer of at least 1")
        if self.error_mode not in ("final", "max"):
            problems.append("study: error_mode must be 'final' or 'max'")
        if not 0 < self.rho < np.inf:
            problems.append("solver: rho must be positive and finite")
        # a traction side without Neumann edges would carry no load at all
        neumann = {seg.side for seg in self.domain.boundary_spec
                   if seg.label == BoundaryLabel.NEUMANN}
        for side in self.loads.g_sides or ():
            if side not in neumann:
                problems.append(f"loads: traction side {side!r} has no neumann segment")
        if self.loads.g_sides is None and np.any(self.loads.g_coeffs) and not neumann:
            problems.append("loads: a traction is set but no side has a neumann segment")
        if problems:
            raise ConfigError("; ".join(problems))


def _build(section, make, *args, **kwargs):
    """Call a value type; the ValueError of a rule it breaks names the section."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path: str) -> ProblemConfig:
    """Parse an INI config file into a validated ProblemConfig.

    Only the keys the file gives are passed on, so every default is the
    one its dataclass states. A key that is not read is an error, so a
    misspelled key cannot fall back to its default unnoticed.
    """
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    parser.optionxform = str  # keep key case: N (time steps) vs n (grid)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # no section header, a repeated key, ...
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path!r}: not UTF-8 ({exc.reason} "
                          f"at byte {exc.start})") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    used = set()

    def given(section, **convs):
        """The keys of section that the file gives, each passed through its conv."""
        values = {}
        for key, conv in convs.items():
            used.add((section, key))
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[key] = conv(raw)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc
        return values

    def fetch(section, key, conv=str):
        values = given(section, **{key: conv})
        if key not in values:
            raise ConfigError(f"{section}: missing required key {key!r}")
        return values[key]

    def real(raw):  # the value types refuse nan and inf too, but cannot name the key
        value = float(raw)
        if not np.isfinite(value):
            raise ValueError("not a finite number")
        return value

    def floats(raw):
        return tuple(real(x) for x in raw.split())

    bounds = [fetch("domain", key, real) for key in ("x_min", "x_max", "y_min", "y_max")]
    if parser.has_option("domain", "segments"):
        segs = []
        for line in fetch("domain", "segments").strip().splitlines():
            try:
                side, lo, hi, label = line.split()
                segs.append(BoundarySegment(side, real(lo), real(hi), BoundaryLabel[label.upper()]))
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"domain.segments: bad line {line.strip()!r}: {exc!r}") from exc
        domain = _build("domain", Domain, *bounds, tuple(segs))
    else:
        sides = {s: fetch("domain", s, lambda r: BoundaryLabel[r.upper()]) for s in SIDES}
        domain = _build("domain", Domain.rectangle, *bounds, **sides)

    rows = given("loads", gx=floats, gy=floats)  # the two rows of LoadSpec.g_coeffs
    g_coeffs = (rows.get("gx", LoadSpec.g_coeffs[0]), rows.get("gy", LoadSpec.g_coeffs[1]))
    loads = _build("loads", LoadSpec, g_coeffs=g_coeffs, **given(
        "loads", f=floats, f_time=str, g_time=str, g_a=real,
        g_sides=lambda raw: None if raw == "all" else tuple(raw.split())))

    # rho_tilde is computed; existing files say 'auto', and a number is refused, not ignored
    if given("solver", rho_tilde=str).get("rho_tilde", "auto") != "auto":
        raise ConfigError("solver.rho_tilde: the step is computed; only 'auto' is accepted")

    material = dict(E=fetch("material", "E", real), nu=fetch("material", "nu", real),
                    **given("material", plane=str))
    uzawa = given("solver", eps=real, max_iter=int)
    fields = dict(T=fetch("study", "T", real), N=fetch("study", "N", int),
                  n=fetch("study", "n", int), **given("study", levels=int, error_mode=str),
                  **given("solver", rho=real))
    unread = [f"{section}.{key}" for section in parser.sections()
              for key in parser[section] if (section, key) not in used]
    if unread:
        raise ConfigError(f"unknown key(s) {', '.join(unread)}")
    return ProblemConfig(domain=domain, loads=loads,
                         material=_build("material", MaterialModel.from_engineering, **material),
                         uzawa=_build("solver", UzawaConfig, **uzawa), **fields)


# a preset is an INI file in presets/, named by its stem
PRESETS = {path.stem: path for path in sorted((Path(__file__).parent / "presets").glob("*.ini"))}


def example_51_config() -> ProblemConfig:
    """The ``example-5.1`` preset, read from its file like any config."""
    return load_config(str(PRESETS["example-5.1"]))


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
    if not (is_integer(level) and level >= 0):
        raise ConfigError(f"solve: level must be a nonnegative integer, got {level!r}")
    meshes = _build("domain", build_meshes, config, level + 1)
    space, _, traj = solve_level(config, meshes[-1], level, log=log)
    # per non-Dirichlet edge: midpoint coordinates and the two DOF values
    keep = space.mesh.edge_labels != BoundaryLabel.DIRICHLET
    values = np.column_stack([space.mesh.midpoints[keep], traj.final.edge_values()[keep]])
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


@contextmanager
def _at_level(level: int):
    """Prefix the message of a solver failure inside the block with its level."""
    try:
        yield
    except SolverError as exc:
        exc.args = (f"level {level}: {exc}",) + exc.args[1:]
        raise


def run_convergence_study(config: ProblemConfig, log=None) -> list[ConvergenceRow]:
    """Solve all levels and compute inter-mesh energy-norm errors.

    Mesh size and time step halve together level to level. The error on
    row i compares levels i-1 and i; orders start on the third row.
    """
    if config.levels < 2:
        raise ConfigError("study: need at least 2 levels for a convergence study")
    meshes = _build("domain", build_meshes, config, config.levels)
    previous = None  # the previous level's space, and its displacements at the nodes it shares
    rows: list[ConvergenceRow] = []
    for level, mesh in enumerate(meshes):
        with _at_level(level):
            space, _, traj = solve_level(config, mesh, level, log=log)
            # u_N, or the trajectory, which forms and checks each node when it is read
            nodes = traj if config.error_mode == "max" else [traj.final]
        grid = traj.grid
        del traj  # in final mode, nothing of the march outlives u_N
        error = order = None
        if previous is not None:
            # the fine grid has twice the steps: its even nodes are the coarse ones
            coarse_space, coarse = previous
            P = prolongation_matrix(coarse_space, space)
            norm = EnergyNormEvaluator(space, config.material, config.rho)
            error = 0.0
            for i in range(len(coarse)):  # a read checks its node: name the node's level
                with _at_level(level - 1):
                    uc = coarse[i]
                with _at_level(level):
                    uf = nodes[2 * i]
                error = max(error, norm(CRFunction(space, P @ uc.coeffs) - uf))
            if rows[-1].error:
                order = float(np.log2(rows[-1].error / error))
        previous = space, nodes
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

def _check_writable(path: Optional[str]) -> None:
    """Raise ConfigError unless path can be opened for writing; leave no file behind."""
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()  # appending leaves an existing file as it is
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


class _Parser(argparse.ArgumentParser):
    """Rejects a bad command line with ConfigError, which main reports with exit 1."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="crcontact",
        description="CR finite element solver for quasi-static Tresca contact")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--preset", choices=sorted(PRESETS))
    common.add_argument("--verbose", action="store_true")

    p_solve = sub.add_parser("solve", parents=[common], help="run a single level")
    p_solve.add_argument("--level", type=int, default=0)
    p_solve.add_argument("--dump-fields", default=None)

    p_study = sub.add_parser("study", parents=[common], help="run a refinement study")
    p_study.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
        log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
        config = load_config(args.config or str(PRESETS[args.preset]))
        # before the solve, not after it: an output path fails fast
        _check_writable(args.dump_fields if args.command == "solve" else args.out)
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
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if isinstance(exc, UzawaError):
            tail = ", ".join(f"{incr:.3e}" for incr in (exc.history or [])[-5:])
            print(f"  at time step {exc.step}; last increments: {tail}", file=sys.stderr)
        elif exc.step is not None:
            print(f"  at time step {exc.step}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
