"""Backward Euler time marching with an inner Uzawa iteration per step.

Each step solves the frictional variational inequality with the Uzawa
fixed-point iteration on the contact multipliers:

    K u = F(t_n) - c(lambda),  c = S^T diag(g_a h_e) lambda
    lambda <- P(lambda + rho_tilde * g_a * (u - u_prev)_tau / k_n)

with P the clamp onto [-1, 1] and S the selection of the tangential
contact DOFs. The iteration runs in contact space. Once per level, ``march``
factors K (SuperLU in symmetric mode) and computes the contact response
Z = K^-1 S^T diag(g_a h_e) (the Delassus operator of nonsmooth contact
dynamics, solved in blocks of contact edges) and, in one two-column solve,
the responses U_0, U_1 to the load at t = 0 and to its slope, since every
load is affine in t: F(t) = F_0 + t F_1. With b = U_0 + t_n U_1, a step
iterates on the m x m contact block M = S Z and the contact rows
u_tau = (b - Z lambda)_tau, updating u_tau <- u_tau - M (lambda_new - lambda):
no sparse solve per step or iteration, and no n-row work per iteration.
The stopping test |Z dlambda|_inf < eps still reads all n rows; it is
evaluated only once |M dlambda|_inf < eps, since the first bounds the
second, and u = b - Z lambda is formed in that same pass over Z, once per
step. The final u of every step is checked against
K u = F(t_n) - c(lambda_n) with the factorization's backward-error test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crcontact.assembly import DiscreteSystem, LoadSpec, assemble_load, friction_rhs
from crcontact.space import CRFunction


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
        if not 1 <= self.N < np.inf:
            raise ValueError("need at least one time step")
        if not 0 < self.T < np.inf:
            raise ValueError("final time must be positive and finite")

    @property
    def k(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class UzawaConfig:
    """Inner iteration parameters.

    The multiplier step rho_tilde is not one of them: ``march`` computes the
    optimal step from the spectrum of the contact Schur complement.
    """

    eps: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if not (0 < self.eps < np.inf and 1 <= self.max_iter < np.inf):
            raise ValueError("need finite eps > 0 and max_iter >= 1")


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


_RTOL = 1e-12  # backward-error tolerance of every checked solve


class SPDFactor:
    """Cached sparse LU factorization of an SPD matrix with residual checks.

    SuperLU runs in symmetric mode: one minimum-degree ordering of K^T + K
    permutes rows and columns alike, and the pivots stay on the diagonal,
    which a positive definite K allows. ``solve`` takes an (n,) or (n, k)
    right-hand side.
    """

    def __init__(self, K: sp.spmatrix):
        self.K = K.tocsc()
        try:
            self.lu = spla.splu(self.K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"factorization failed: {exc}") from exc
        self._norm_K = spla.norm(self.K, np.inf) if self.K.nnz else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.check(self.lu.solve(rhs), rhs)

    def check(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Return x if every column solves K x = rhs to the backward-error tolerance.

        The test is per column of an (n, k) block, so a column with a small
        right-hand side cannot pass on the norm of the large ones.
        """
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve produced non-finite values")
        nrhs = np.linalg.norm(rhs, axis=0)
        res = np.linalg.norm(self.K @ x - rhs, axis=0)
        # backward-error criterion; reduces to res <= _RTOL*|rhs| for
        # well-scaled right-hand sides and stays meaningful as rhs -> 0
        bound = _RTOL * (nrhs + self._norm_K * np.linalg.norm(x, axis=0))
        fail = res > np.maximum(bound, 1e-300)
        if np.any(fail):
            raise SolverError(f"linear solve residual {np.max(res * fail):.3e} exceeds "
                              f"tolerance in {np.count_nonzero(fail)} of {np.size(fail)} column(s)")
        return x


def projection_P(chi):
    """Clamp onto [-1, 1]: P(chi) = sup(-1, inf(1, chi))."""
    return np.minimum(np.maximum(chi, -1.0), 1.0)  # np.clip costs twice as much per call


# columns of the contact response solved together by ``_contact_response``
_BLOCK = 32


def _contact_response(factor: SPDFactor, tangent_idx: np.ndarray,
                      weights: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Z = K^-1 S^T diag(weights) (n x m), one guarded solve per block of columns.

    Given ``rows`` (e.g. the contact rows), only those rows of Z are kept.
    The blocks bound the memory held beside Z: the right-hand side and the
    solution of one block, plus the n x _BLOCK scratch of the solve and of
    its residual check.
    """
    n, m = factor.K.shape[0], len(tangent_idx)
    keep = slice(None) if rows is None else rows
    Z = np.empty((n if rows is None else len(rows), m), order="F")
    for j in range(0, m, _BLOCK):
        cols = slice(j, j + _BLOCK)
        idx = tangent_idx[cols]
        rhs = np.zeros((n, len(idx)), order="F")
        rhs[idx, np.arange(len(idx))] = weights[cols]
        Z[:, cols] = factor.solve(rhs)[keep]
    return Z


def _optimal_rho(Z_tau: np.ndarray, weights: np.ndarray, g_a: float, k_n: float) -> float:
    """rho_tilde minimizing the spectral radius of I - rho_tilde*(g_a/k_n)*M.

    ``Z_tau`` holds the contact rows of Z, i.e. the Schur complement M.
    """
    # symmetrize in the W^(1/2)-weighted sense before taking eigenvalues
    s = np.sqrt(weights)
    Msym = (Z_tau * s[None, :]) / s[:, None]
    eigs = np.linalg.eigvalsh(0.5 * (Msym + Msym.T))
    if eigs[0] <= 0:
        raise SolverError("contact Schur complement is not positive definite")
    return 2.0 * k_n / (g_a * (eigs[0] + eigs[-1]))


def stable_rho_tilde(system: DiscreteSystem, g_a: float, k_n: float,
                     factor: Optional[SPDFactor] = None) -> float:
    """The multiplier step that ``march`` computes from its own contact response.

    The fixed-point iteration matrix is I - rho_tilde*(g_a/k_n)*M with
    M = S K^-1 S^T W the tangential contact Schur complement (S selects
    tangential contact DOFs, W = diag(g_a h_e)); the returned step
    2 k_n / (g_a (min eig M + max eig M)) minimizes its spectral radius.
    """
    idx = system.space.contact_tangent_dof
    if len(idx) == 0 or g_a == 0.0:
        return 1.0
    if factor is None:
        factor = SPDFactor(system.K)
    w = g_a * system.space.contact_edge_lengths
    return _optimal_rho(_contact_response(factor, idx, w, rows=idx), w, g_a, k_n)


def uzawa_iterate(u_base: np.ndarray, Z: np.ndarray, tangent_idx: np.ndarray,
                  g_a: float, prev_tau: np.ndarray, k_n: float, rho_tilde: float,
                  eps: float, max_iter: int, lam0: Optional[np.ndarray] = None):
    """Array-level Uzawa loop on the m x m contact block.

    With u_base = K^-1 F and Z = K^-1 S^T diag(g_a w), u = u_base - Z lambda
    solves K u = F - c(lambda), c_i = g_a * w_i * lambda_i on the tangential
    rows. The multiplier update reads only the contact rows u_tau, so the
    loop runs on M = Z[tangent_idx] and u_tau: each iteration sets
    lambda <- P(lambda + rho_tilde * g_a * velocity) and u_tau <- u_tau - M
    dlambda. It stops when the increment |Z dlambda|_inf over all n rows
    drops below eps. That norm is at least |M dlambda|_inf, so Z dlambda is
    formed only once |M dlambda|_inf < eps, together with Z lambda in one
    two-column product; u = u_base - Z lambda is formed on stopping (or
    failing). ``history`` holds |M dlambda|_inf per iteration, and
    |Z dlambda|_inf at those candidates. Starts from lambda = P(lam0), or
    zero when lam0 is None. Returns (u, lambda, iterations, history).
    """
    lam = (np.zeros(Z.shape[1]) if lam0 is None
           else projection_P(np.asarray(lam0, dtype=float)))
    # in Z's column order, M dlambda sums like the contact rows of Z dlambda
    M = np.asfortranarray(Z[tangent_idx])
    u_tau = u_base[tangent_idx] - M @ lam
    history = []
    for it in range(1, max_iter + 1):
        vel_tau = (u_tau - prev_tau) / k_n
        lam_new = projection_P(lam + rho_tilde * g_a * vel_tau)
        dlam = lam_new - lam
        du_tau = M @ dlam
        u_tau = u_tau - du_tau
        lam = lam_new
        incr = float(np.abs(du_tau).max())
        if incr < eps:  # a stop candidate: the n rows decide
            du, z_lam = (Z @ np.column_stack((dlam, lam))).T
            incr = float(np.abs(du).max())
        history.append(incr)
        if incr < eps:
            return u_base - z_lam, lam, it, history
    raise UzawaError(
        f"Uzawa iteration failed to converge within {max_iter} iterations "
        f"(last increment {history[-1]:.3e})",
        last_u=u_base - Z @ lam, last_lam=lam, history=history)


def uzawa_step_solve(system: DiscreteSystem, u_base: np.ndarray, Z: Optional[np.ndarray],
                     u_prev: CRFunction, k_n: float, rho_tilde: float, cfg: UzawaConfig,
                     g_a: float, lam0: Optional[np.ndarray] = None):
    """One backward-Euler step solved by the Uzawa fixed-point iteration.

    ``u_base`` = K^-1 F(t_n) and ``Z`` = K^-1 S^T diag(g_a h_e), or None
    without contact or friction: the step is then u_base, with zero
    multipliers and one iteration. Returns (u, multipliers, iterations).
    The multiplier update, with step ``rho_tilde``, uses the tangential
    backward-difference velocity (u - u_prev)_tau / k_n, and the iteration
    stops when the max-norm of successive displacement iterates drops below
    cfg.eps. ``lam0`` warm-starts the multiplier.
    """
    space = system.space
    if Z is None:
        return CRFunction(space, u_base), np.zeros(len(space.contact_edges)), 1
    idx = space.contact_tangent_dof
    u, lam, it, _ = uzawa_iterate(u_base, Z, idx, g_a, u_prev.coeffs[idx], k_n,
                                  rho_tilde, cfg.eps, cfg.max_iter, lam0=lam0)
    return CRFunction(space, u), lam, it


def march(system: DiscreteSystem, loads: LoadSpec, grid: TimeGrid,
          cfg: UzawaConfig, log: Optional[Callable[[str], None]] = None) -> TrajectorySolution:
    """Backward-Euler marching over the whole time grid.

    The march starts from rest, the multiplier step is the optimal one of
    ``stable_rho_tilde``, and the multiplier is warm-started from the
    previous step. A level costs one factorization, one block solve per
    ``_BLOCK`` contact edges for the contact response Z (skipped without
    contact or friction) and one two-column solve for the responses U_0, U_1
    to the affine load F(t) = F_0 + t F_1; each step's u is checked against
    K u = F(t_n) - c(lambda_n). Every node's displacement is allocated before
    the factorization, so free heap memory goes to them and not to SuperLU's
    mostly unwritten workspace, and the peak memory does not vary run to run.
    """
    space = system.space
    coeffs = [np.empty(space.n_dofs_free) for _ in grid.nodes]
    coeffs[0][:] = 0.0
    u = CRFunction(space, coeffs[0])
    factor = SPDFactor(system.K)
    idx = space.contact_tangent_dof
    m = len(idx)
    Z, rho_tilde = None, 1.0
    if m and loads.g_a != 0.0:
        w = loads.g_a * space.contact_edge_lengths
        Z = _contact_response(factor, idx, w)
        # uniform k: the stable step is the same for every time step
        rho_tilde = _optimal_rho(Z[idx], w, loads.g_a, grid.k)
    F_0 = assemble_load(space, loads, 0.0)
    F_1 = assemble_load(space, loads, 1.0) - F_0
    U_0, U_1 = factor.solve(np.column_stack((F_0, F_1))).T

    lam = np.zeros(m)
    multipliers = [lam]
    iters = []
    for n, t_n in enumerate(grid.nodes[1:], start=1):
        try:
            u, lam, it = uzawa_step_solve(system, U_0 + t_n * U_1, Z, u, grid.k, rho_tilde,
                                          cfg, loads.g_a, lam0=lam)
        except UzawaError as exc:
            exc.step = n
            raise
        factor.check(u.coeffs, F_0 + t_n * F_1 - friction_rhs(space, loads.g_a, lam))
        coeffs[n][:] = u.coeffs
        multipliers.append(lam)
        iters.append(it)
        if log is not None:
            log(f"step {n}: t={t_n:.6g} uzawa_iters={it}")
    return TrajectorySolution(grid=grid, displacements=[CRFunction(space, c) for c in coeffs],
                              multipliers=multipliers, uzawa_iters=iters)
