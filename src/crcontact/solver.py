"""Backward Euler time marching with an inner Uzawa iteration per step.

Each step solves the frictional variational inequality by alternating a
sparse SPD solve with a projected multiplier update:

    K u = F(t_n) - friction_rhs(lambda)
    lambda <- P(lambda + rho_tilde * g_a * (u - u_prev)_tau / k_n)

with P the clamp onto [-1, 1]. The stiffness factorization is computed
once per mesh and reused across all steps and inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crcontact.assembly import DiscreteSystem, LoadSpec, assemble_load
from crcontact.space import CRFunction, interpolate_cr


class SolverError(RuntimeError):
    """Raised on linear-solve breakdown (non-SPD matrix or bad residual)."""


class UzawaError(RuntimeError):
    """Raised when the inner Uzawa iteration exceeds its iteration cap.

    Carries the last iterates (``last_u``, ``last_lam``, as arrays), the
    increment ``history`` and, when raised inside ``march``, the ``step``.
    """

    def __init__(self, message, last_u=None, last_lam=None, history=None, step=None):
        super().__init__(message)
        self.last_u = last_u
        self.last_lam = last_lam
        self.history = history
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one time step")
        if self.T <= 0:
            raise ValueError("final time must be positive")

    @property
    def k(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass
class FrictionState:
    """Scalar Lagrange multiplier per contact edge, clamped to [-1, 1]."""

    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if np.any(np.abs(self.lam) > 1.0 + 1e-12):
            raise ValueError("multiplier out of [-1, 1]")


@dataclass(frozen=True)
class UzawaConfig:
    """Inner iteration parameters.

    ``rho_tilde`` may be the string 'auto', which picks a stable step from
    the spectrum of the contact Schur complement (the literal value 1 can
    be arbitrarily slow for stiff materials with a small friction bound).
    """

    rho_tilde: Union[float, str] = 1.0
    eps: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if isinstance(self.rho_tilde, str):
            if self.rho_tilde != "auto":
                raise ValueError("rho_tilde must be a positive number or 'auto'")
        elif self.rho_tilde <= 0:
            raise ValueError("rho_tilde must be positive")
        if self.eps <= 0 or self.max_iter < 1:
            raise ValueError("need eps > 0 and max_iter >= 1")


@dataclass
class TrajectorySolution:
    """Fully-discrete solution: displacement and multiplier per time node."""

    grid: TimeGrid
    displacements: list  # CRFunction per node, index 0..N
    multipliers: list  # multiplier array per node (zeros at node 0)
    uzawa_iters: list  # inner iteration count per step 1..N

    @property
    def final(self) -> CRFunction:
        return self.displacements[-1]


class SPDFactor:
    """Cached sparse LU factorization of an SPD matrix with residual checks."""

    def __init__(self, K: sp.spmatrix, rtol: float = 1e-12):
        self.K = K.tocsc()
        self.rtol = rtol
        try:
            self.lu = spla.splu(self.K)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"factorization failed: {exc}") from exc
        self._norm_K = spla.norm(self.K, np.inf) if self.K.nnz else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self.lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve produced non-finite values")
        nrhs = np.linalg.norm(rhs)
        res = np.linalg.norm(self.K @ x - rhs)
        # backward-error criterion; reduces to res <= rtol*|rhs| for
        # well-scaled right-hand sides and stays meaningful as rhs -> 0
        bound = self.rtol * (nrhs + self._norm_K * np.linalg.norm(x))
        if res > max(bound, 1e-300):
            raise SolverError(f"linear solve residual {res:.3e} exceeds tolerance")
        return x


def solve_spd(K: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """One-shot direct solve of an SPD system with a residual check."""
    return SPDFactor(K).solve(np.asarray(rhs, dtype=float))


def projection_P(chi):
    """Clamp onto [-1, 1]: P(chi) = sup(-1, inf(1, chi))."""
    return np.clip(chi, -1.0, 1.0)


def stable_rho_tilde(system: DiscreteSystem, g_a: float, k_n: float,
                     factor: Optional[SPDFactor] = None) -> float:
    """Step scalar putting the multiplier update at the edge of optimal.

    The fixed-point iteration matrix is I - rho_tilde*(g_a/k_n)*M with
    M = S K^-1 S^T W the tangential contact Schur complement (S selects
    tangential contact DOFs, W = diag(g_a h_e)). Choosing
    rho_tilde = k_n / (g_a * max eig M) keeps the spectrum in [0, 1).
    """
    idx = system.contact_tangent_dof
    m = len(idx)
    if m == 0 or g_a == 0.0:
        return 1.0
    if factor is None:
        factor = SPDFactor(system.K)
    n = system.K.shape[0]
    w = g_a * system.contact_weights
    M = np.empty((m, m))
    for j in range(m):
        rhs = np.zeros(n)
        rhs[idx[j]] = w[j]
        M[:, j] = factor.solve(rhs)[idx]
    # symmetrize in the W^(1/2)-weighted sense before taking eigenvalues
    s = np.sqrt(w)
    Msym = (M * s[None, :]) / s[:, None]
    eigs = np.linalg.eigvalsh(0.5 * (Msym + Msym.T))
    if eigs[0] <= 0:
        raise SolverError("contact Schur complement is not positive definite")
    # minimize the spectral radius of I - rho_tilde*(g_a/k)*M
    return 2.0 * k_n / (g_a * (eigs[0] + eigs[-1]))


def uzawa_iterate(factor: SPDFactor, load: np.ndarray, tangent_idx: np.ndarray,
                  g_a: float, edge_weights: np.ndarray, prev_tau: np.ndarray,
                  k_n: float, rho_tilde: float, eps: float, max_iter: int,
                  lam0: Optional[np.ndarray] = None):
    """Array-level Uzawa loop on an arbitrary SPD system.

    Alternates K u = load - c(lambda) with c_i = g_a * w_i * lambda_i on the
    tangential rows, and lambda <- P(lambda + rho_tilde * g_a * velocity),
    starting from lambda = P(lam0), or zero when lam0 is None.
    Returns (u, lambda, iterations, increment history).
    """
    n = factor.K.shape[0]
    m = len(tangent_idx)
    lam = np.zeros(m) if lam0 is None else projection_P(np.asarray(lam0, dtype=float))
    coupling = np.zeros(n)

    def solve_with(lam):
        coupling[tangent_idx] = g_a * edge_weights * lam
        return factor.solve(load - coupling)

    u = solve_with(lam)
    history = []
    for it in range(1, max_iter + 1):
        vel_tau = (u[tangent_idx] - prev_tau) / k_n
        lam = projection_P(lam + rho_tilde * g_a * vel_tau)
        u_new = solve_with(lam)
        incr = float(np.max(np.abs(u_new - u)))
        history.append(incr)
        u = u_new
        if incr < eps:
            return u, lam, it, history
    raise UzawaError(
        f"Uzawa iteration failed to converge within {max_iter} iterations "
        f"(last increment {history[-1]:.3e})",
        last_u=u, last_lam=lam, history=history)


def uzawa_step_solve(system: DiscreteSystem, load_n: np.ndarray, u_prev: CRFunction,
                     k_n: float, cfg: UzawaConfig, g_a: float,
                     lam0: Optional[np.ndarray] = None,
                     factor: Optional[SPDFactor] = None):
    """One backward-Euler step solved by the Uzawa fixed-point iteration.

    Returns (u, FrictionState, iterations). The multiplier update uses the
    tangential backward-difference velocity (u - u_prev)_tau / k_n, and the
    iteration stops when the max-norm of successive displacement iterates
    drops below cfg.eps. ``lam0`` warm-starts the multiplier.
    """
    space = system.space
    if factor is None:
        factor = SPDFactor(system.K)
    m = len(space.contact_edges)

    if m == 0 or g_a == 0.0:
        u = factor.solve(load_n)
        return CRFunction(space, u), FrictionState(np.zeros(m)), 1

    rho_tilde = (stable_rho_tilde(system, g_a, k_n, factor)
                 if cfg.rho_tilde == "auto" else float(cfg.rho_tilde))

    idx = space.contact_tangent_dof
    u, lam, it, _ = uzawa_iterate(factor, load_n, idx, g_a, system.contact_weights,
                                  u_prev.coeffs[idx], k_n, rho_tilde, cfg.eps,
                                  cfg.max_iter, lam0=lam0)
    return CRFunction(space, u), FrictionState(lam), it


def march(system: DiscreteSystem, loads: LoadSpec, grid: TimeGrid,
          cfg: UzawaConfig, log: Optional[Callable[[str], None]] = None) -> TrajectorySolution:
    """Backward-Euler marching over the whole time grid.

    The multiplier is warm-started from the previous step; the stiffness
    factorization is computed once and reused.
    """
    space = system.space
    if loads.u0 is None:
        u = CRFunction.zero(space)
    else:
        u = interpolate_cr(loads.u0, space)
    factor = SPDFactor(system.K)
    if cfg.rho_tilde == "auto":
        # uniform k: the stable step is the same for every time step
        from dataclasses import replace
        cfg = replace(cfg, rho_tilde=stable_rho_tilde(system, loads.g_a, grid.k, factor))

    m = len(space.contact_edges)
    lam = np.zeros(m)
    displacements = [u]
    multipliers = [lam.copy()]
    iters = []
    k = grid.k
    for n, t_n in enumerate(grid.nodes[1:], start=1):
        load_n = assemble_load(space, loads, t_n)
        try:
            u, state, it = uzawa_step_solve(system, load_n, u, k, cfg, loads.g_a,
                                            lam0=lam, factor=factor)
        except UzawaError as exc:
            exc.step = n
            raise
        lam = state.lam
        displacements.append(u)
        multipliers.append(lam.copy())
        iters.append(it)
        if log is not None:
            log(f"step {n}: t={t_n:.6g} uzawa_iters={it}")
    return TrajectorySolution(grid=grid, displacements=displacements,
                              multipliers=multipliers, uzawa_iters=iters)
