"""Independent oracles that the tests check the package against.

No program path runs them, so they live beside the tests. They read only
public ``crcontact`` names (``tests/test_package.py`` holds them to it),
which keeps them independent of the code they check: a proximal-gradient
minimizer of the backward-Euler step functional (criterion 5) and a broken
H1 seminorm integrated by a degree-4 rule (the interpolation rates).
"""

import numpy as np
import scipy.sparse as sp

from crcontact.assembly import DiscreteSystem, friction_weights
from crcontact.space import CRFunction


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
    space, idx = system.space, system.space.contact_tangent_dof
    u = minimize_tresca_quadratic(system.K, load, idx, friction_weights(space, g_a),
                                  u_prev.coeffs[idx], tol=tol)
    return CRFunction(space, u)


# -- broken H1 machinery for interpolation studies -------------------------

def gradients(fn: CRFunction) -> np.ndarray:
    """Constant displacement gradient per triangle: (nt, 2, 2), [t, i, j] = d u_i / d x_j."""
    local = fn.edge_values()[fn.space.mesh.tri_edges]  # (nt, 3 local edges, 2 comps)
    return np.swapaxes(local, 1, 2) @ fn.space.grads


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
    sq = np.sum((exact - gradients(fn)[:, None]) ** 2, axis=(2, 3))  # (nt, 6)
    return float(np.sqrt(np.sum(mesh.areas[:, None] * _DUNAVANT4_W * sq)))
