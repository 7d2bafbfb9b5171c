"""Assembly of the stabilized bilinear form, loads and friction coupling.

The stiffness combines the broken elastic energy (constant strain per
element, exact) with an edge-jump penalty 2*rho*mu/h_e over interior and
Dirichlet edges, integrated with 2-point Gauss (exact for CR jumps, which
are linear along each edge). The friction functional uses the one-point
midpoint rule per contact edge, whose value is exactly the tangential DOF.

Each term is built in one pass per mesh from the basis data the
``CRSpace`` owns: its element gradients, its signed jump traces and its
basis values at the Neumann Gauss points. The stiffness triplets and the
load vector come from the space's DOF maps and go through
``sparse_from_local``, the one scatter, so no term here reads which DOFs are
eliminated. The friction vector is the exception: each contact edge has one
distinct free tangential DOF, so ``friction_rhs`` writes its values with
one assignment, with nothing to sum or drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from crcontact.mesh import SIDES, BoundaryLabel
from crcontact.material import MaterialModel
from crcontact.space import CRFunction, CRSpace, sparse_from_local


@dataclass
class DiscreteSystem:
    """Stiffness over the free DOFs of a space.

    Multiplier lambda_e of contact edge e enters as W_e * lambda_e at
    ``space.contact_tangent_dof[e]``, with W = ``friction_weights(space, g_a)``.
    """

    space: CRSpace
    K: sp.csr_matrix


# time factor s(t) of each load term; every load is therefore affine in t
_TIME_FACTORS = {"const": lambda t: 1.0, "linear": lambda t: t}


@dataclass(frozen=True)
class LoadSpec:
    """Body force, Neumann traction and friction bound.

    The body force ``f`` is a constant vector; the traction ``g`` is
    componentwise affine in (x, y): g_i(x, y) = c0 + cx*x + cy*y. Each is
    scaled by its time factor, 1 ('const') or t ('linear'), so the load
    vector is affine in t: F(t) = F(0) + t (F(1) - F(0)). ``g_sides``
    optionally restricts the traction to one or more named rectangle sides
    (other Neumann edges are traction free).
    """

    f: tuple[float, float] = (0.0, 0.0)
    f_time: str = "const"
    g_coeffs: tuple[tuple[float, float, float], tuple[float, float, float]] = (
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    g_time: str = "const"
    g_sides: Optional[tuple[str, ...]] = None
    g_a: float = 0.0

    def __post_init__(self):
        if not 0 <= self.g_a < np.inf:
            raise ValueError(f"friction bound must be nonnegative and finite, got {self.g_a}")
        if len(self.f) != 2 or [len(row) for row in self.g_coeffs] != [3, 3]:
            raise ValueError("f needs 2 entries, gx and gy need 3 (c0 cx cy)")
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.g_coeffs))):
            raise ValueError("f, gx and gy must be finite numbers")
        for name in (self.f_time, self.g_time):
            if name not in _TIME_FACTORS:
                raise ValueError(f"time factor must be 'const' or 'linear', got {name!r}")
        if self.g_sides == ():
            raise ValueError("no traction side named; leave g_sides unset for all sides")
        unknown = set(self.g_sides or ()) - set(SIDES)
        if unknown:
            raise ValueError(f"unknown traction side(s) {sorted(unknown)}, expected {SIDES}")

    def f_at(self, t: float) -> np.ndarray:
        return np.asarray(self.f, dtype=float) * _TIME_FACTORS[self.f_time](t)

    def g_at(self, points: np.ndarray, t: float) -> np.ndarray:
        """Traction values at points (npts, 2), scaled by the time factor."""
        c = np.asarray(self.g_coeffs, dtype=float)  # (2, 3)
        vals = c[:, 0][None, :] + points @ c[:, 1:].T
        return vals * _TIME_FACTORS[self.g_time](t)


def element_stiffness(grads: np.ndarray, area: np.ndarray, mat: MaterialModel) -> np.ndarray:
    """Element matrices area * B^T D B in DOF order (e0x, e0y, ..., e2y).

    ``grads`` (..., 3, 2) and ``area`` (...) are the basis gradients and
    areas of ``cr_gradients``; the result is (..., 6, 6). The strain is
    constant per element, so the one-point rule is exact.
    """
    gx, gy = grads[..., 0], grads[..., 1]
    # rows (eps_xx, eps_yy, 2 eps_xy); columns 2j, 2j + 1 are the x, y dofs of edge j
    B = np.zeros(area.shape + (3, 6))
    B[..., 0, 0::2] = gx
    B[..., 1, 1::2] = gy
    B[..., 2, 0::2] = gy
    B[..., 2, 1::2] = gx
    return area[..., None, None] * (B.swapaxes(-1, -2) @ mat.dmatrix() @ B)


def assemble_stiffness(space: CRSpace, mat: MaterialModel, rho: float) -> DiscreteSystem:
    """Stabilized stiffness matrix over the free DOFs.

    K keeps its cancelled sums as explicit zeros (16,384 of 437,328 entries
    at L5 of example-5.1). Dropping them by ``K.eliminate_zeros()`` leaves
    the reverse Cuthill-McKee order unchanged but raises SuperLU's L+U
    nonzeros (L4-L6: 1.08M -> 1.09M, 6.25M -> 6.47M, 33.4M -> 35.9M): its
    minimum-degree ordering of K^T + K makes use of those entries.
    """
    if rho <= 0:
        raise ValueError(f"stabilization parameter must be positive, got {rho}")
    nt = space.mesh.n_triangles
    phi, dofs = space.jump_traces()
    k = len(phi)
    # one (6, 6) block per triangle, then one per (stabilized edge, component),
    # written in place: the scatter reads them as a view and copies only indices
    blocks = np.empty((nt + 2 * k, 6, 6))
    block_dofs = np.empty((nt + 2 * k, 6), dtype=np.int32)  # as sparse_from_local takes them

    # element term: constant strain per triangle; dofs (e0x, e0y, e1x, e1y, e2x, e2y)
    blocks[:nt] = element_stiffness(space.grads, space.mesh.areas, mat)
    block_dofs[:nt] = space.local_dofs.reshape(nt, 6)

    # jump penalty over interior and Dirichlet edges, the same block for both
    # components; weight (2 rho mu / h_e) * (h_e / 2) per Gauss point
    phi = phi.swapaxes(2, 3).reshape(k, 6, 2)
    jump = blocks[nt:].reshape(k, 2, 6, 6)
    np.matmul(phi, phi.swapaxes(1, 2), out=jump[:, 0])
    jump[:, 0] *= mat.mu * rho
    jump[:, 1] = jump[:, 0]
    block_dofs[nt:] = dofs.reshape(k, 6, 2).swapaxes(1, 2).reshape(2 * k, 6)  # (edge, comp) rows
    del phi, dofs  # not held through the scatter

    n = space.n_dofs_free
    K = sparse_from_local(block_dofs[:, :, None], block_dofs[:, None, :], blocks, (n, n))
    return DiscreteSystem(space=space, K=K)


def assemble_load(space: CRSpace, loads: LoadSpec, t: float) -> np.ndarray:
    """Load vector: body force plus Neumann traction at time t."""
    mesh = space.mesh

    # body force by the 3-midpoint rule: basis j is 1 at its own midpoint,
    # 0 at the others
    body = np.broadcast_to(loads.f_at(t) * mesh.areas[:, None, None] / 3.0,
                           space.local_dofs.shape)

    neumann = np.nonzero(mesh.edge_labels == BoundaryLabel.NEUMANN)[0]
    if loads.g_sides is not None:
        neumann = neumann[np.isin(mesh.boundary_side(neumann), loads.g_sides)]
    pts = space.edge_gauss_points(neumann)  # (k, 2 pts, 2)
    tris = mesh.edge_tris[neumann, 0]
    traces = space.basis_values(tris, pts)  # (k, 2 pts, 3)
    gvals = loads.g_at(pts, t)  # (k, 2 pts, 2 comps)
    w = 0.5 * mesh.edge_lengths[neumann]
    traction = w[:, None, None] * (traces.swapaxes(1, 2) @ gvals)  # (k, 3, 2)

    dofs = np.concatenate([space.local_dofs, space.local_dofs[tris]])
    vals = np.concatenate([body, traction])
    return sparse_from_local(dofs, 0, vals, (space.n_dofs_free, 1)).toarray().ravel()


def friction_weights(space: CRSpace, g_a: float) -> np.ndarray:
    """W_e = g_a h_e per contact edge, the midpoint-rule weights of the friction functional."""
    return g_a * space.mesh.edge_lengths[space.contact_edges]


def friction_value(space: CRSpace, g_a: float, v: CRFunction) -> float:
    """Friction functional: sum over contact edges of W_e |v_tau(m_e)|."""
    return float(np.dot(friction_weights(space, g_a), np.abs(v.coeffs[space.contact_tangent_dof])))


def friction_rhs(space: CRSpace, g_a: float, lam: np.ndarray) -> np.ndarray:
    """Uzawa coupling vector: W_e lambda_e at each tangential contact DOF.

    A trajectory subtracts it from the load when it checks a node it forms.
    """
    w, lam = friction_weights(space, g_a), np.asarray(lam, dtype=float)
    if lam.shape != w.shape:
        raise ValueError(f"expected one multiplier per contact edge ({len(w)}), got {lam.shape}")
    if np.any(np.abs(lam) > 1.0 + 1e-12):
        raise ValueError("friction multiplier out of [-1, 1]")
    out = np.zeros(space.n_dofs_free)
    out[space.contact_tangent_dof] = w * lam
    return out
