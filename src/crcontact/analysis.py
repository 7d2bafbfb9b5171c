"""Mesh-dependent energy norms, inter-mesh errors and a desk-scale oracle.

The energy norm evaluator reads the element gradients and signed edge
traces that the ``CRSpace`` owns, as the stiffness assembly does, but
applies them to the coefficient vector as sparse gradient and jump
operators and evaluates the strain-energy density with its own formula.
v^T K v and |||v|||^2 are therefore an independent cross-check of the
assembled element and penalty blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from crcontact.assembly import DiscreteSystem
from crcontact.material import MaterialModel
from crcontact.space import CRFunction, CRSpace, prolongate, sparse_from_local


@dataclass
class EnergyNormBreakdown:
    """Squared element and jump contributions of the mesh-dependent norm."""

    elem_part: float
    jump_part: float

    @property
    def total(self) -> float:
        return float(np.sqrt(self.elem_part + self.jump_part))


@dataclass
class ConvergenceRow:
    """One line of a refinement study table."""

    N: int
    h: float
    k: float
    dof: int
    error: Optional[float]
    order: Optional[float]


class EnergyNormEvaluator:
    """Reusable evaluator of |||v|||^2 = |v|_h^2 + |v|_*^2 on a fixed space.

    Precomputes a sparse gradient operator (per-element strain, exact) and a
    sparse jump-trace operator over interior and Dirichlet edges (2-point
    Gauss, exact for CR jumps).
    """

    def __init__(self, space: CRSpace, material: MaterialModel, rho: float):
        if rho <= 0:
            raise ValueError("stabilization parameter must be positive")
        self.space = space
        self.material = material
        self.rho = rho
        nt = space.mesh.n_triangles
        n = space.n_dofs_free

        # row 4t + 2i + j holds d u_i / d x_j on triangle t (axes t, local edge, i, j)
        rows = (4 * np.arange(nt))[:, None, None, None] + 2 * np.arange(2)[:, None] + np.arange(2)
        self._grad_op = sparse_from_local(rows, space.local_dofs[..., None],
                                          space.grads[:, :, None, :], (4 * nt, n))

        # row 4k + 2q + c holds the jump of component c at Gauss point q of
        # the k-th stabilized edge (axes edge, side, q, local edge, c)
        phi, dofs = space.jump_traces()  # (k, 2, 2, 3), (k, 2, 3, 2)
        k = len(phi)
        rows = ((4 * np.arange(k))[:, None, None, None, None]
                + 2 * np.arange(2)[:, None, None] + np.arange(2))
        self._jump_op = sparse_from_local(rows, dofs[:, :, None], phi[..., None], (4 * k, n))

    def breakdown(self, v: CRFunction) -> EnergyNormBreakdown:
        lam, mu = self.material.lam, self.material.mu
        g = (self._grad_op @ v.coeffs).reshape(-1, 2, 2)
        exx = g[:, 0, 0]
        eyy = g[:, 1, 1]
        exy = 0.5 * (g[:, 0, 1] + g[:, 1, 0])
        tr = exx + eyy
        density = lam * tr**2 + 2.0 * mu * (exx**2 + eyy**2 + 2.0 * exy**2)
        elem = float(np.dot(self.space.mesh.areas, density))

        # sum over Gauss points of |jump|^2 carries the uniform weight rho*mu:
        # (2 rho mu / h_e) * (h_e / 2) per point
        jumps = self._jump_op @ v.coeffs
        jump = float(self.rho * mu * np.dot(jumps, jumps))
        return EnergyNormBreakdown(elem_part=elem, jump_part=jump)

    def __call__(self, v: CRFunction) -> float:
        return self.breakdown(v).total


def energy_norm(v: CRFunction, material: MaterialModel, rho: float) -> EnergyNormBreakdown:
    """One-shot evaluation of the mesh-dependent norm of a CR function."""
    return EnergyNormEvaluator(v.space, material, rho).breakdown(v)


def inter_mesh_error(u_coarse: CRFunction, u_fine: CRFunction,
                     material: MaterialModel, rho: float) -> float:
    """Energy norm of (prolongated coarse - fine) on the fine mesh."""
    diff = prolongate(u_coarse, u_fine.space) - u_fine
    return energy_norm(diff, material, rho).total


# -- brute-force minimizer -----------------------------------------------

def minimize_tresca_quadratic(K, F, tangent_idx, weights, prev_tangent,
                              tol=1e-10, max_iter=10**6):
    """Accelerated proximal-gradient minimizer of the per-step functional

        E(u) = 1/2 u^T K u - F^T u + sum_i w_i |u[idx_i] - p_i|.

    Independent of the Uzawa path: the nonsmooth term is handled by its
    exact proximal map (soft thresholding), with adaptive restart.
    Stops when the composite gradient mapping has inf-norm below
    tol * max(1, |F|_inf).
    """
    K = sp.csr_matrix(K)
    F = np.asarray(F, dtype=float)
    idx = np.asarray(tangent_idx, dtype=np.int64)
    w = np.asarray(weights, dtype=float)
    p = np.asarray(prev_tangent, dtype=float)
    n = K.shape[0]

    # largest eigenvalue by power iteration for the prox step size
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    L = 1.0
    for _ in range(200):
        y = K @ x
        L_new = float(np.linalg.norm(y))
        x = y / L_new
        if abs(L_new - L) <= 1e-10 * L_new:
            L = L_new
            break
        L = L_new
    step = 1.0 / (1.05 * L)

    def prox(z):
        out = z.copy()
        if len(idx):
            d = z[idx] - p
            out[idx] = p + np.sign(d) * np.maximum(np.abs(d) - step * w, 0.0)
        return out

    def objective(u):
        val = 0.5 * np.dot(u, K @ u) - np.dot(F, u)
        if len(idx):
            val += np.dot(w, np.abs(u[idx] - p))
        return val

    scale = max(1.0, float(np.max(np.abs(F))) if n else 1.0)
    u = np.zeros(n)
    z = u.copy()
    theta = 1.0
    obj_prev = objective(u)
    for it in range(max_iter):
        grad = K @ z - F
        u_new = prox(z - step * grad)
        mapping = np.max(np.abs(u - prox(u - step * (K @ u - F)))) / step
        if mapping <= tol * scale:
            return u
        obj = objective(u_new)
        if obj > obj_prev:  # restart momentum
            theta = 1.0
            z = u_new
        else:
            theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
            z = u_new + ((theta - 1.0) / theta_new) * (u_new - u)
            theta = theta_new
        u = u_new
        obj_prev = obj
    raise RuntimeError(f"proximal gradient did not reach stationarity {tol:g} "
                       f"within {max_iter} iterations")


def brute_force_vi_oracle(system: DiscreteSystem, load: np.ndarray,
                          u_prev: CRFunction, g_a: float,
                          tol: float = 1e-10) -> CRFunction:
    """Independent minimizer of the backward-Euler step functional.

    The step solves min 1/2 a_h(u,u) - (l,u) + k_n j((u - u_prev)/k_n);
    positive homogeneity of j cancels k_n, so the oracle minimizes
    1/2 a_h(u,u) - (l,u) + j(u - u_prev). Intended for desk-scale systems.
    """
    n = system.K.shape[0]
    if n > 2000:
        raise ValueError(f"oracle is for small systems (got {n} free DOFs)")
    space = system.space
    prev = u_prev.coeffs[space.contact_tangent_dof]
    u = minimize_tresca_quadratic(system.K, load, space.contact_tangent_dof,
                                  g_a * space.contact_edge_lengths, prev, tol=tol)
    return CRFunction(space, u)


# -- broken H1 machinery for interpolation studies -------------------------

# degree-4 Dunavant rule: 6 points in barycentric coordinates
_DUNAVANT4_BARY = np.array([
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
])
_DUNAVANT4_W = np.array([
    0.109951743655322, 0.109951743655322, 0.109951743655322,
    0.223381589678011, 0.223381589678011, 0.223381589678011,
])


def broken_h1_seminorm_error(fn: CRFunction, grad_exact) -> float:
    """Broken H1 seminorm of (exact field - CR function).

    ``grad_exact`` is a callable (x, y) -> 2x2 gradient array, called per
    quadrature point. The CR gradient is constant per element; the exact
    gradient is integrated with a degree-4 quadrature on all triangles at once.
    """
    mesh = fn.space.mesh
    pts = _DUNAVANT4_BARY @ mesh.vertices[mesh.triangles]  # (nt, 6, 2)
    exact = np.array([np.asarray(grad_exact(x, y), dtype=float)
                      for x, y in pts.reshape(-1, 2)]).reshape(pts.shape[:2] + (2, 2))
    sq = np.sum((exact - fn.gradients()[:, None]) ** 2, axis=(2, 3))  # (nt, 6)
    return float(np.sqrt(np.sum(mesh.areas[:, None] * _DUNAVANT4_W * sq)))
