"""Backward Euler time marching with an inner Uzawa iteration per step.

Each step solves the frictional variational inequality with the Uzawa
fixed-point iteration on the contact multipliers:

    K u = F(t_n) - c(lambda),  c = S^T diag(g_a h_e) lambda
    lambda <- P(lambda + s (u - u_prev)_tau),  s = 2 / (mu_min + mu_max)

with P the clamp onto [-1, 1], S the selection of the tangential contact
DOFs and mu the eigenvalues of the contact block M below. The paper's step
rho_tilde g_a / k_n is s: j is positively homogeneous, so k_n cancels, and
s depends on neither k_n nor the load, so one s serves every step of a
level. The iteration runs in contact space. Once per level, ``march``
factors K (SuperLU in symmetric mode, after a bandwidth-reducing
renumbering) and computes the contact response
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
step.

Each step's u is certified to solve K u = F(t_n) - c(lambda_n) to the
factorization's backward-error tolerance from the residuals of the setup
solves, without a product with K; the explicit test runs only when that
bound fails (see ``march``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from crcontact.assembly import DiscreteSystem, LoadSpec, assemble_load, friction_rhs
from crcontact.space import CRFunction


class SolverError(RuntimeError):
    """Raised when a solve fails; rejected input raises ValueError instead.

    A linear solve breaks down (non-SPD matrix or bad residual) or, as
    ``UzawaError``, the inner iteration does not converge. When raised by a
    time step of ``march``, ``step`` names that step.
    """

    step = None


class UzawaError(SolverError):
    """Raised when the inner Uzawa iteration exceeds its iteration cap.

    Carries the last iterates (``last_u``, ``last_lam``, as arrays) and the
    increment ``history``.
    """

    def __init__(self, message, last_u=None, last_lam=None, history=None):
        super().__init__(message)
        self.last_u = last_u
        self.last_lam = last_lam
        self.history = history


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if not (isinstance(self.N, numbers.Integral) and self.N >= 1):
            raise ValueError("need at least one time step and an integer N")
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

    The multiplier step is not one of them: ``march`` computes the optimal
    s = 2 / (mu_min + mu_max) from the spectrum of the contact block M.
    """

    eps: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if not (0 < self.eps < np.inf and isinstance(self.max_iter, numbers.Integral)
                and self.max_iter >= 1):
            raise ValueError("need finite eps > 0 and an integer max_iter >= 1")


@dataclass
class TrajectorySolution:
    """Fully-discrete solution: the kept displacements and every node's multiplier.

    ``displacements`` holds the last nodes that ``march`` was asked to keep,
    in order and ending at u_N: every node 0..N by default. The study in
    ``error_mode = "max"`` keeps them all; in ``"final"`` it keeps u_{N-1}
    and u_N, the pair that the final-step velocity (u_N - u_{N-1}) / k of
    the variational-inequality check reads. Keeping two nodes instead of
    N+1 lowered the measured peak RSS of an L0-L6 final-mode study of
    example-5.1 from 2,528 to 700 MB, and of the L0-L4 study from 117.9 to
    96.7 MB (2-core VM).
    """

    grid: TimeGrid
    displacements: list  # CRFunction per kept node: nodes N+1-len..N
    multipliers: list  # multiplier array per node (zeros at node 0)
    uzawa_iters: list  # inner iteration count per step 1..N

    @property
    def final(self) -> CRFunction:
        return self.displacements[-1]


_RTOL = 1e-12  # backward-error tolerance of every checked solve


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the rounding bound of k floating-point operations."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


class SPDFactor:
    """Cached sparse LU factorization of an SPD matrix with residual checks.

    K is first renumbered by reverse Cuthill-McKee (George and Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981): SuperLU's
    minimum-degree ordering breaks ties by the input numbering, and a
    banded one gives it less fill than the refinement edge order of the
    DOFs (L+U nonzeros at L4-L7 of example-5.1: 1.17M -> 1.08M, 6.78M ->
    6.25M, 39.0M -> 33.4M, 209.0M -> 171.0M). SuperLU then factors the
    renumbered K in symmetric mode: one minimum-degree ordering of K^T + K
    permutes rows and columns alike, and the pivots stay on the diagonal,
    which a positive definite K allows. ``solve`` takes an (n,) or (n, k)
    right-hand side and returns a C-ordered solution in the original
    numbering; the residual check multiplies by the original K in CSR form,
    which is the faster product and needs no copy of a C-ordered x.
    """

    def __init__(self, K: sp.spmatrix):
        self.K = K.tocsr()
        n = self.K.shape[0]
        if self.K.shape != (n, n):
            raise ValueError("can only factor square matrices")
        # reverse_cuthill_mckee raises on an empty graph
        p = self._p = reverse_cuthill_mckee(self.K, symmetric_mode=True) if n else np.arange(0)
        self._p_inv = np.argsort(p)
        try:
            self.lu = spla.splu(self.K[p][:, p].tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"factorization failed: {exc}") from exc
        self._norm_K = spla.norm(self.K, np.inf) if self.K.nnz else 0.0
        # rounding of a residual row: a dot product of q terms, one subtraction
        self._gamma_res = _gamma(int(np.diff(self.K.indptr).max(initial=0)) + 1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # rhs[p] is freed when lu.solve returns, before the gather allocates x
        x = self.lu.solve(rhs[self._p])[self._p_inv]
        self._solved = self._certificate(x, rhs)
        return x

    def _certified_solve(self, rhs: np.ndarray):
        """``solve``, returning x and, per column, its certified residual and |x|.

        ``solve`` keeps it in ``_solved`` and returns x alone: the benchmark's
        setup workload passes that return value to ``CRFunction``, and its
        tracer counts the ``solve`` calls under ``march``
        (``tests/test_trace_contract.py``), so these solves go through it.
        """
        x = self.solve(rhs)
        return x, self._solved

    def check(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Return x if every column solves K x = rhs to the backward-error tolerance.

        The test is per column of an (n, k) block, so a column with a small
        right-hand side cannot pass on the norm of the large ones.
        """
        self._certificate(x, rhs)
        return x

    def _certificate(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Check x as ``check`` does; return per column (certified residual, |x|).

        The certified residual bounds the exact |K x - rhs| (see ``march``).
        """
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve produced non-finite values")
        axis = 0 if x.ndim > 1 else None  # a vector's norm skips the slower axis path
        nrhs = np.linalg.norm(rhs, axis=axis)
        nx = np.linalg.norm(x, axis=axis)
        r = self.K @ x
        r -= rhs
        # norm's own r * r would be a fourth block beside rhs, x and r
        res = np.sqrt(np.add.reduce(np.square(r, out=r), axis=0))
        # backward-error criterion; reduces to res <= _RTOL*|rhs| for
        # well-scaled right-hand sides and stays meaningful as rhs -> 0
        bound = _RTOL * (nrhs + self._norm_K * nx)
        fail = res > np.maximum(bound, 1e-300)
        if np.any(fail):
            raise SolverError(f"linear solve residual {np.max(res * fail):.3e} exceeds "
                              f"tolerance in {np.count_nonzero(fail)} of {np.size(fail)} column(s)")
        return np.array([res + self._gamma_res * (self._norm_K * nx + nrhs), nx])


def projection_P(chi):
    """Clamp onto [-1, 1]: P(chi) = sup(-1, inf(1, chi))."""
    return np.minimum(np.maximum(chi, -1.0), 1.0)  # np.clip costs twice as much per call


# columns of the contact response solved together by ``_contact_response``
_BLOCK = 32


def _contact_response(factor: SPDFactor, tangent_idx: np.ndarray,
                      weights: np.ndarray, rows: Optional[np.ndarray] = None):
    """Z = K^-1 S^T diag(weights) (n x m), one guarded solve per block of columns.

    Given ``rows`` (e.g. the contact rows), only those rows of Z are kept.
    The blocks bound the memory held beside Z: one block's right-hand side
    and at most two more n x _BLOCK arrays of its solve and residual check
    (``SPDFactor.solve``). Returns Z and the (2, m) certified residuals and
    norms of its full columns (``SPDFactor._certified_solve``).
    """
    n, m = factor.K.shape[0], len(tangent_idx)
    keep = slice(None) if rows is None else rows
    Z = np.empty((n if rows is None else len(rows), m), order="F")
    certificate = np.empty((2, m))
    for j in range(0, m, _BLOCK):
        cols = slice(j, j + _BLOCK)
        idx = tangent_idx[cols]
        rhs = np.zeros((n, len(idx)), order="F")
        rhs[idx, np.arange(len(idx))] = weights[cols]
        x, certificate[:, cols] = factor._certified_solve(rhs)
        Z[:, cols] = x[keep]
        del x  # not held through the next block's solve
    return Z, certificate


def _optimal_step(M: np.ndarray, weights: np.ndarray) -> float:
    """The step s = 2 / (mu_min + mu_max) minimizing the spectral radius of I - s M.

    ``M`` holds the contact rows of Z, i.e. the Schur complement, with eigenvalues mu.
    """
    # M = A W with A = S K^-1 S^T, so W^(1/2) M W^(-1/2) = W^(1/2) A W^(1/2) is
    # symmetric and has M's eigenvalues; the average removes its round-off
    s = np.sqrt(weights)
    Msym = s[:, None] * M / s[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (Msym + Msym.T))
    if eigs[0] <= 0:
        raise SolverError("contact Schur complement is not positive definite")
    return 2.0 / (eigs[0] + eigs[-1])


def stable_rho_tilde(system: DiscreteSystem, g_a: float, k_n: float, factor: SPDFactor) -> float:
    """The paper's step rho_tilde = k_n s / g_a for the step s that ``march`` uses.

    The iteration matrix is I - s M with M = S K^-1 S^T W the tangential
    contact Schur complement (S selects tangential contact DOFs, W =
    diag(g_a h_e)); s = 2 / (min eig M + max eig M) minimizes its spectral
    radius. Returns 1 without contact or friction.
    """
    idx = system.space.contact_tangent_dof
    if len(idx) == 0 or g_a == 0.0:
        return 1.0
    w = g_a * system.space.contact_edge_lengths
    return k_n / g_a * _optimal_step(_contact_response(factor, idx, w, rows=idx)[0], w)


def uzawa_iterate(u_base: np.ndarray, Z: np.ndarray, M: np.ndarray, tangent_idx: np.ndarray,
                  prev_tau: np.ndarray, lam: np.ndarray, step: float, eps: float, max_iter: int):
    """Array-level Uzawa loop on the m x m contact block.

    With u_base = K^-1 F and Z = K^-1 S^T diag(g_a w), u = u_base - Z lambda
    solves K u = F - c(lambda), c_i = g_a * w_i * lambda_i on the tangential
    rows. The multiplier update reads only the contact rows u_tau, so the
    loop runs on M = Z[tangent_idx], F-ordered so that M dlambda sums like
    the contact rows of Z dlambda, and u_tau: each iteration sets
    lambda <- P(lambda + step * (u_tau - prev_tau)) and u_tau <- u_tau - M
    dlambda. It stops when the increment |Z dlambda|_inf over all n rows
    drops below eps. That norm is at least |M dlambda|_inf, so Z dlambda is
    formed only once |M dlambda|_inf < eps, together with Z lambda in one
    two-column product; u = u_base - Z lambda is formed on stopping (or
    failing). ``history`` holds |M dlambda|_inf per iteration, and
    |Z dlambda|_inf at those candidates. Starts from ``lam``, which must lie
    in [-1, 1]. Returns (u, lambda, iterations, history).
    """
    u_tau = u_base[tangent_idx] - M @ lam
    history = []
    for it in range(1, max_iter + 1):
        lam_new = projection_P(lam + step * (u_tau - prev_tau))
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
                     M: Optional[np.ndarray], u_prev: CRFunction, lam: np.ndarray,
                     step: Optional[float], cfg: UzawaConfig):
    """One backward-Euler step solved by the Uzawa fixed-point iteration.

    ``u_base`` = K^-1 F(t_n), ``Z`` = K^-1 S^T diag(g_a h_e) and ``M`` =
    Z[contact rows] (F-ordered), both None without contact or friction: the
    step is then u_base, with zero multipliers and one iteration. Returns
    (u, multipliers, iterations).
    From the multiplier ``lam`` in [-1, 1], each update adds ``step`` times
    (u - u_prev)_tau, the paper's rho_tilde g_a (u - u_prev)_tau / k_n. The
    iteration stops when the max-norm of successive displacement iterates
    drops below cfg.eps.
    """
    space = system.space
    if Z is None:
        return CRFunction(space, u_base), np.zeros(len(space.contact_edges)), 1
    idx = space.contact_tangent_dof
    u, lam, it, _ = uzawa_iterate(u_base, Z, M, idx, u_prev.coeffs[idx], lam, step,
                                  cfg.eps, cfg.max_iter)
    return CRFunction(space, u), lam, it


def _step_bound(bound, t_n: float, lam: np.ndarray) -> float:
    """B_n = b_0 + t_n b_1 + |lambda_n| . b_Z from ``march``'s per-level (b_0, b_1, b_Z)."""
    b_0, b_1, b_Z = bound
    return b_0 + t_n * b_1 + np.abs(lam) @ b_Z


def march(system: DiscreteSystem, loads: LoadSpec, grid: TimeGrid,
          cfg: UzawaConfig, log: Optional[Callable[[str], None]] = None,
          keep_last: Optional[int] = None) -> TrajectorySolution:
    """Backward-Euler marching over the whole time grid.

    The march starts from rest, the multiplier step is the optimal one of
    ``_optimal_step`` on the contact block M, and the multiplier is
    warm-started from the previous step. A level costs one factorization,
    one block solve per ``_BLOCK`` contact edges for the contact response Z
    (skipped without contact or friction) and one two-column solve for the
    responses U_0, U_1 to the affine load F(t) = F_0 + t F_1; M = Z[contact
    rows] is formed once.

    Each step's u_n = U_0 + t_n U_1 - Z lambda_n is certified against
    K u = F(t_n) - c(lambda_n) without a product with K. Each setup column x
    has the certified residual rho = |fl(K x - b)| + gamma_{q+1} (|K|_inf |x|
    + |b|) (q the most nonzeros in a row of K, gamma_k = k u / (1 - k u) for
    the unit roundoff u, |K|_2 <= |K|_inf as K is symmetric; Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 3.1 and 3.5). By
    linearity, with |lambda| <= 1, gamma_K = gamma_{m+3} |K|_inf and
    w = g_a h_e, the residual of u_n is at most

        B_n = rho_U0 + t_n rho_U1 + sum_j |lambda_j| (rho_Zj + gamma_K |Z_j|)
              + gamma_K (|U_0| + t_n |U_1|) + gamma_3 (|F_0| + t_n |F_1| + |w|).

    A step passes if B_n < _RTOL |K|_inf |u_n| / 2 < inf, the other half
    covering the explicit test's own rounding; otherwise (a nan or inf,
    u = 0, a loose bound) the explicit check runs.

    Only the displacements of the last ``keep_last`` nodes are stored (all
    N+1 when None); the multipliers of every node are. The kept
    displacements are allocated before the factorization, so free heap
    memory goes to them and not to SuperLU's mostly unwritten workspace;
    with every node kept, the peak memory does not vary run to run. A step
    that fails raises with its ``step`` set.
    """
    if keep_last is not None and not (isinstance(keep_last, numbers.Integral) and keep_last >= 1):
        raise ValueError("keep_last must be None or an integer of at least 1")
    space = system.space
    first = 0 if keep_last is None else max(grid.N + 1 - keep_last, 0)  # first kept node
    coeffs = [np.empty(space.n_dofs_free) for _ in grid.nodes[first:]]
    if first == 0:
        coeffs[0][:] = 0.0
    u = CRFunction.zero(space)
    factor = SPDFactor(system.K)
    idx = space.contact_tangent_dof
    m = len(idx)
    w = loads.g_a * space.contact_edge_lengths
    gamma_K = _gamma(m + 3) * factor._norm_K  # rounding of forming u_n, times |K|
    Z = M = step = None
    b_Z = np.zeros(m)
    if m and loads.g_a != 0.0:
        Z, (rho_Z, norm_Z) = _contact_response(factor, idx, w)
        b_Z = rho_Z + gamma_K * norm_Z
        M = np.asfortranarray(Z[idx])
        step = _optimal_step(M, w)
    F_0 = assemble_load(space, loads, 0.0)
    F_1 = assemble_load(space, loads, 1.0) - F_0
    U, ((rho_0, rho_1), (norm_0, norm_1)) = factor._certified_solve(np.column_stack((F_0, F_1)))
    U_0, U_1 = U.T.copy()  # contiguous rows: each step reads U_0 + t_n U_1
    gamma_3 = _gamma(3)  # rounding of forming F(t_n) - c(lambda_n)
    bound = (rho_0 + gamma_K * norm_0 + gamma_3 * (np.linalg.norm(F_0) + np.linalg.norm(w)),
             rho_1 + gamma_K * norm_1 + gamma_3 * np.linalg.norm(F_1), b_Z)
    # the other half covers the explicit test's own rounding
    tol = 0.5 * _RTOL * factor._norm_K

    lam = np.zeros(m)
    multipliers = [lam]
    iters = []
    for n, t_n in enumerate(grid.nodes[1:], start=1):
        try:
            u, lam, it = uzawa_step_solve(system, U_0 + t_n * U_1, Z, M, u, lam, step, cfg)
            if not _step_bound(bound, t_n, lam) < tol * np.sqrt(u.coeffs @ u.coeffs) < np.inf:
                factor.check(u.coeffs, F_0 + t_n * F_1 - friction_rhs(space, loads.g_a, lam))
        except SolverError as exc:
            exc.step = n
            raise
        if n >= first:
            coeffs[n - first][:] = u.coeffs
        multipliers.append(lam)
        iters.append(it)
        if log is not None:
            log(f"step {n}: t={t_n:.6g} uzawa_iters={it}")
    return TrajectorySolution(grid=grid, displacements=[CRFunction(space, c) for c in coeffs],
                              multipliers=multipliers, uzawa_iters=iters)
