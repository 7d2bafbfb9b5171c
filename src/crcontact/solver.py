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
second. A step forms no displacement: the next step needs only lambda and
u_tau = b_tau - M lambda, and the trajectory forms a node when it is read.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from crcontact.assembly import (DiscreteSystem, LoadSpec, assemble_load, friction_rhs,
                                friction_weights)
from crcontact.space import CRFunction


class SolverError(RuntimeError):
    """Raised when a solve fails; rejected input raises ValueError instead.

    A linear solve breaks down (non-SPD matrix or bad residual) or, as
    ``UzawaError``, the inner iteration does not converge. When raised by a
    step of ``march`` or by reading a node, ``step`` names that step.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class UzawaError(SolverError):
    """Raised when the inner Uzawa iteration exceeds its iteration cap.

    Carries the last multiplier iterate ``last_lam`` and the increment
    ``history``.
    """

    def __init__(self, message, last_lam=None, history=None):
        super().__init__(message)
        self.last_lam = last_lam
        self.history = history


def is_integer(value) -> bool:
    """The rule for a count: a Python or NumPy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if not (is_integer(self.N) and self.N >= 1):
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
        if not (0 < self.eps < np.inf and is_integer(self.max_iter) and self.max_iter >= 1):
            raise ValueError("need finite eps > 0 and an integer max_iter >= 1")


@dataclass
class TrajectorySolution(Sequence):
    """Fully-discrete solution: the read-only sequence of its nodes 0..N.

    It keeps every node's multiplier and what forms its displacement.
    Reading node n (``traj[n]``, ``final``) forms u_n = U_0 + t_n U_1 -
    Z lambda_n (Z is None without contact or friction) and checks it against
    K u_n = F_0 + t_n F_1 - c(lambda_n), one product with K; a failure raises
    ``SolverError`` with ``step = n``. Node 0, the rest state, is zero and
    unchecked. Nodes are read by integer index, negative ones counting from
    N. No node is stored or cached: that would bring back the storage.
    ``displacements`` is the trajectory itself, kept for ``perfbench/``.
    """

    grid: TimeGrid
    multipliers: list  # multiplier array per node (zeros at node 0)
    uzawa_iters: list  # inner iteration count per step 1..N
    system: DiscreteSystem
    norm_K: float  # |K|_inf, for the residual check
    g_a: float
    U: np.ndarray  # rows U_0, U_1
    F: np.ndarray  # rows F_0, F_1
    Z: Optional[np.ndarray]

    @property
    def displacements(self) -> TrajectorySolution:
        return self

    @property
    def final(self) -> CRFunction:
        return self[-1]

    def __len__(self) -> int:
        return self.grid.N + 1

    def __getitem__(self, n: int) -> CRFunction:
        n = range(len(self))[operator.index(n)]
        if n == 0:  # the rest state, which solves no equation when F(0) != 0
            return CRFunction.zero(self.system.space)
        t_n, lam = self.grid.nodes[n], self.multipliers[n]
        u = self.U[0] + t_n * self.U[1]
        if self.Z is not None:
            u -= self.Z @ lam
        rhs = self.F[0] + t_n * self.F[1] - friction_rhs(self.system.space, self.g_a, lam)
        _check_residual(self.system.K, self.norm_K, u, rhs, step=n)
        return CRFunction(self.system.space, u)


_RTOL = 1e-12  # backward-error tolerance of every checked solve


def _column_norms(a: np.ndarray):
    """Euclidean norm of each column of a, or of a vector, without forming a * a."""
    return np.sqrt(np.einsum("i...,i...->...", a, a))


def _check_residual(K: sp.csr_matrix, norm_K: float, x: np.ndarray, rhs: np.ndarray, step=None):
    """Check that every column of x solves K x = rhs to the backward-error tolerance.

    ``norm_K`` is |K|_inf; a failure raises ``SolverError`` with ``step``. The
    test is per column of an (n, k) block, so a column with a small right-hand
    side cannot pass on the norm of the large ones. A CSR K gives the faster
    product and needs no copy of a C-ordered x.
    """
    if not np.all(np.isfinite(x)):
        raise SolverError("linear solve produced non-finite values", step)
    r = K @ x
    r -= rhs
    nrhs, nx, res = _column_norms(rhs), _column_norms(x), _column_norms(r)
    # backward-error criterion; reduces to res <= _RTOL*|rhs| for
    # well-scaled right-hand sides and stays meaningful as rhs -> 0
    bound = _RTOL * (nrhs + norm_K * nx)
    fail = res > np.maximum(bound, 1e-300)
    if np.any(fail):
        raise SolverError(f"linear solve residual {np.max(res * fail):.3e} exceeds tolerance in "
                          f"{np.count_nonzero(fail)} of {np.size(fail)} column(s)", step)


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
    which a positive definite K allows. ``solve`` takes a dense (n,) or
    (n, k) right-hand side and returns a C-ordered solution in the original
    numbering, checked by ``_check_residual``. The check's |K|_inf is taken
    before the renumbering and the factorization, so that its |K| temporary
    is freed before SuperLU allocates L and U rather than held beside them.
    """

    def __init__(self, K: sp.spmatrix):
        self.K = K.tocsr()
        n = self.K.shape[0]
        if self.K.shape != (n, n):
            raise ValueError("can only factor square matrices")
        self._norm_K = spla.norm(self.K, np.inf) if self.K.nnz else 0.0
        # reverse_cuthill_mckee raises on an empty graph
        p = self._p = reverse_cuthill_mckee(self.K, symmetric_mode=True) if n else np.arange(0)
        self._p_inv = np.argsort(p)
        try:
            self.lu = spla.splu(self.K[p][:, p].tocsc(), permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # the permuted rhs is freed when lu.solve returns, before the gather allocates x
        x = self.lu.solve(rhs[self._p])[self._p_inv]
        _check_residual(self.K, self._norm_K, x, rhs)
        return x


def projection_P(chi):
    """Clamp onto [-1, 1]: P(chi) = sup(-1, inf(1, chi))."""
    return np.minimum(np.maximum(chi, -1.0), 1.0)  # np.clip costs twice as much per call


# columns of the contact response solved together by ``_contact_response``
_BLOCK = 16


def _contact_response(factor: SPDFactor, tangent_idx: np.ndarray,
                      weights: np.ndarray, rows: Optional[np.ndarray] = None):
    """Z = K^-1 S^T diag(weights) (n x m), one guarded solve per block of columns.

    Given ``rows`` (e.g. the contact rows), only those rows of Z are kept.
    The blocks bound the memory held beside Z: each block's right-hand side
    is a dense n x _BLOCK array, and its solve and residual check hold three
    n x _BLOCK arrays at once: the right-hand side and two of (its permuted
    copy, SuperLU's output, x, the residual) (``SPDFactor.solve``).
    """
    n, m = factor.K.shape[0], len(tangent_idx)
    keep = slice(None) if rows is None else rows
    Z = np.empty((n if rows is None else len(rows), m), order="F")
    for j in range(0, m, _BLOCK):
        cols = slice(j, j + _BLOCK)
        idx = tangent_idx[cols]
        rhs = np.zeros((n, len(idx)))
        rhs[idx, np.arange(len(idx))] = weights[cols]
        x = factor.solve(rhs)
        Z[:, cols] = x[keep]
        del x  # not held through the next block's solve
    return Z


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
    radius. Raises ValueError without contact or friction, where it is undefined.
    """
    idx = system.space.contact_tangent_dof
    if len(idx) == 0 or g_a == 0.0:
        raise ValueError("rho_tilde = k_n s / g_a needs contact edges and g_a > 0")
    w = friction_weights(system.space, g_a)
    return k_n / g_a * _optimal_step(_contact_response(factor, idx, w, rows=idx), w)


def uzawa_iterate(b_tau: np.ndarray, Z: np.ndarray, M: np.ndarray, prev_tau: np.ndarray,
                  lam: np.ndarray, step: float, eps: float, max_iter: int):
    """Array-level Uzawa loop on the m x m contact block.

    With u_base = K^-1 F and Z = K^-1 S^T diag(W), W the ``friction_weights``,
    u = u_base - Z lambda solves K u = F - c(lambda), c_i = W_i lambda_i on
    the tangential rows. The multiplier update reads only the contact rows
    u_tau, so the loop runs on b_tau = u_base[contact rows], M = Z[contact rows],
    F-ordered so that M dlambda sums like the contact rows of Z dlambda, and
    u_tau: each iteration sets lambda <- P(lambda + step * (u_tau -
    prev_tau)) and u_tau <- u_tau - M dlambda. It stops when the increment
    |Z dlambda|_inf over all n rows drops below eps. That norm is at least
    |M dlambda|_inf, so Z dlambda is formed only once |M dlambda|_inf < eps.
    ``history`` holds |M dlambda|_inf per iteration, and |Z dlambda|_inf at
    those candidates. Starts from ``lam``, which must lie in [-1, 1].
    Returns (u_tau, lambda, iterations, history), with u_tau = b_tau - M
    lambda formed afresh on stopping: the contact rows of the node that the
    trajectory forms from lambda.
    """
    u_tau = b_tau - M @ lam
    history = []
    for it in range(1, max_iter + 1):
        lam_new = projection_P(lam + step * (u_tau - prev_tau))
        dlam = lam_new - lam
        du_tau = M @ dlam
        u_tau = u_tau - du_tau
        lam = lam_new
        incr = float(np.abs(du_tau).max())
        if incr < eps:  # a stop candidate: the n rows decide
            incr = float(np.abs(Z @ dlam).max())
        history.append(incr)
        if incr < eps:
            return b_tau - M @ lam, lam, it, history
    raise UzawaError(
        f"Uzawa iteration failed to converge within {max_iter} iterations "
        f"(last increment {history[-1]:.3e})", last_lam=lam, history=history)


def uzawa_step_solve(b_tau: np.ndarray, Z: Optional[np.ndarray], M: Optional[np.ndarray],
                     prev_tau: np.ndarray, lam: np.ndarray, step: Optional[float],
                     cfg: UzawaConfig):
    """One backward-Euler step solved by the Uzawa fixed-point iteration.

    ``b_tau`` holds the contact rows of K^-1 F(t_n), ``Z`` = K^-1 S^T
    diag(g_a h_e) and ``M`` = Z[contact rows] (F-ordered), both None without
    contact or friction: the step then returns b_tau and ``lam`` unchanged,
    with one iteration. Returns (u_tau, multipliers, iterations), u_tau the
    contact rows of the step's displacement.
    From the multiplier ``lam`` in [-1, 1], each update adds ``step`` times
    (u - u_prev)_tau, the paper's rho_tilde g_a (u - u_prev)_tau / k_n, with
    ``prev_tau`` = (u_prev)_tau. The iteration stops when the max-norm of
    successive displacement iterates drops below cfg.eps.
    """
    if Z is None:
        return b_tau, lam, 1
    u_tau, lam, it, _ = uzawa_iterate(b_tau, Z, M, prev_tau, lam, step, cfg.eps, cfg.max_iter)
    return u_tau, lam, it


def march(system: DiscreteSystem, loads: LoadSpec, grid: TimeGrid,
          cfg: UzawaConfig, log: Optional[Callable[[str], None]] = None) -> TrajectorySolution:
    """Backward-Euler marching over the whole time grid.

    The march starts from rest, the multiplier step is the optimal one of
    ``_optimal_step`` on the contact block M, and the multiplier is
    warm-started from the previous step. A level costs one factorization,
    one block solve per ``_BLOCK`` contact edges for the contact response Z
    (skipped without contact or friction) and one two-column solve for the
    responses U_0, U_1 to the affine load F(t) = F_0 + t F_1; M = Z[contact
    rows] is formed once.

    A step forms no displacement: it hands the next step its multiplier and
    the contact rows u_tau = b_tau - M lambda of its node, where b = U_0 +
    t_n U_1; the trajectory stores every node's multiplier and forms a node
    when it is read. A step that fails raises with its ``step`` set.
    """
    space = system.space
    factor = SPDFactor(system.K)
    idx = space.contact_tangent_dof
    Z = M = step = None
    if len(idx) and loads.g_a != 0.0:
        w = friction_weights(space, loads.g_a)
        Z = _contact_response(factor, idx, w)
        M = np.asfortranarray(Z[idx])
        step = _optimal_step(M, w)
    F_0 = assemble_load(space, loads, 0.0)
    F_1 = assemble_load(space, loads, 1.0) - F_0
    U = factor.solve(np.column_stack((F_0, F_1))).T.copy()  # contiguous rows U_0, U_1

    U_tau = U[:, idx]
    lam = u_tau = np.zeros(len(idx))  # the rest state
    multipliers = [lam]
    iters = []
    for n, t_n in enumerate(grid.nodes[1:], start=1):
        try:
            u_tau, lam, it = uzawa_step_solve(U_tau[0] + t_n * U_tau[1], Z, M, u_tau, lam,
                                              step, cfg)
        except SolverError as exc:
            exc.step = n
            raise
        multipliers.append(lam)
        iters.append(it)
        if log is not None:
            log(f"step {n}: t={t_n:.6g} uzawa_iters={it}")
    return TrajectorySolution(grid=grid, multipliers=multipliers, uzawa_iters=iters,
                              system=system, norm_K=factor._norm_K,
                              g_a=loads.g_a, U=U, F=np.array((F_0, F_1)), Z=Z)
