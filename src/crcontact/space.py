"""Crouzeix-Raviart vector P1 space: DOF layout, basis, interpolation.

Degrees of freedom sit at edge midpoints, two components per edge.
Dirichlet edges carry no DOFs; contact edges carry only the tangential
component (the normal one is constrained to zero). Contact edges must be
axis-aligned so the constraint is a pure coordinate elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crcontact.mesh import BoundaryLabel, Mesh, MeshError

#: 2-point Gauss abscissae on [-1, 1] (exact for cubics on an edge)
GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def cr_gradients(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant gradients of the three CR shape functions on triangles.

    Shape function j equals 1 on the edge opposite vertex j, i.e.
    psi_j = 1 - 2 * lambda_j with lambda_j the barycentric coordinate.
    ``coords`` is (..., 3, 2), one triangle or a stack of them. Returns
    (grads (..., 3, 2), areas (...)); raises MeshError if any triangle is
    degenerate or clockwise.
    """
    p = np.asarray(coords, dtype=float)
    d1 = p[..., 1, :] - p[..., 0, :]
    d2 = p[..., 2, :] - p[..., 0, :]
    area = 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    if np.any(area <= 0):
        raise MeshError("triangle is degenerate or clockwise")
    # edge opposite vertex j runs from vertex j+1 to vertex j+2
    opp = p[..., [2, 0, 1], :] - p[..., [1, 2, 0], :]
    grad_bary = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / (2.0 * area)[..., None, None]
    return -2.0 * grad_bary, area


def cr_values(coords: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CR shape function values at given points inside triangles.

    ``coords`` is (..., 3, 2) and ``points`` (..., npts, 2); the leading
    axes broadcast. Returns an (..., npts, 3) array whose rows sum to 1.
    """
    p = np.asarray(coords, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d1 = p[..., None, 1, :] - p[..., None, 0, :]
    d2 = p[..., None, 2, :] - p[..., None, 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    if np.any(det <= 0):
        raise MeshError("triangle is degenerate or clockwise")
    r = pts - p[..., None, 0, :]
    l1 = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / det
    l2 = (d1[..., 0] * r[..., 1] - d1[..., 1] * r[..., 0]) / det
    l0 = 1.0 - l1 - l2
    bary = np.stack([l0, l1, l2], axis=-1)
    return 1.0 - 2.0 * bary


class CRSpace:
    """DOF layout of the constrained CR space on a classified mesh.

    Attributes
    ----------
    mesh : Mesh
    dof_x, dof_y : (ne,) int arrays mapping edge -> free DOF index, -1 when
        the component is eliminated (Dirichlet edge, or contact normal)
    local_dofs : (nt, 3, 2) free DOF indices per triangle / local edge / comp
    contact_edges : indices of contact edges
    contact_tangent_dof : free DOF of the tangential component per contact edge
    n_dofs_reported : 2 x (#edges - #Dirichlet edges)
    n_dofs_free : after eliminating the contact normal components
    """

    def __init__(self, mesh: Mesh):
        labels = mesh.edge_labels
        boundary = mesh.edge_tris[:, 1] < 0
        if np.any(boundary & (labels == BoundaryLabel.INTERIOR)):
            raise MeshError("mesh has unclassified boundary edges")

        # per-edge component count: none on Dirichlet edges, the tangential
        # one on contact edges, both otherwise; numbered in edge order
        contact = np.nonzero(labels == BoundaryLabel.CONTACT)[0]
        dv = mesh.vertices[mesh.edges[contact, 1]] - mesh.vertices[mesh.edges[contact, 0]]
        tol = 1e-12 * mesh.domain.diameter
        horizontal = np.abs(dv[:, 1]) <= tol  # tangent x, normal y constrained
        if not np.all(horizontal | (np.abs(dv[:, 0]) <= tol)):
            raise MeshError("contact edges must be axis-aligned")
        count = np.full(mesh.n_edges, 2, dtype=np.int64)
        count[labels == BoundaryLabel.DIRICHLET] = 0
        count[contact] = 1
        first = np.cumsum(count) - count
        dof_x = np.where(count == 2, first, -1)
        dof_y = np.where(count == 2, first + 1, -1)
        dof_x[contact[horizontal]] = first[contact[horizontal]]
        dof_y[contact[~horizontal]] = first[contact[~horizontal]]

        self.mesh = mesh
        self.dof_x = dof_x
        self.dof_y = dof_y
        self.n_dofs_free = int(count.sum())
        n_dirichlet = int(np.count_nonzero(labels == BoundaryLabel.DIRICHLET))
        self.n_dofs_reported = 2 * (mesh.n_edges - n_dirichlet)
        self.contact_edges = contact
        self.contact_tangent_dof = first[contact]

        te = mesh.tri_edges
        self.local_dofs = np.stack([dof_x[te], dof_y[te]], axis=2)
        for arr in (self.dof_x, self.dof_y, self.local_dofs, self.contact_edges,
                    self.contact_tangent_dof):
            arr.setflags(write=False)

    @property
    def contact_edge_lengths(self) -> np.ndarray:
        return self.mesh.edge_lengths[self.contact_edges]

    def edge_gauss_points(self, e) -> np.ndarray:
        """The two Gauss points on edge(s) e: (2, 2), or (len(e), 2, 2)."""
        a = self.mesh.vertices[self.mesh.edges[e, 0]]
        b = self.mesh.vertices[self.mesh.edges[e, 1]]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return mid[..., None, :] + GAUSS2[:, None] * half[..., None, :]


def _jump_traces(space: CRSpace, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed traces of the basis functions of both sides of each edge.

    Returns (phi (k, 2 sides, 2 Gauss points, 3), dofs (k, 2 sides, 3, 2)):
    the first adjacent triangle counts +, the second -, and the dofs of a
    missing second triangle are -1.
    """
    mesh = space.mesh
    tris = mesh.edge_tris[edges]
    present = tris >= 0
    tris = np.where(present, tris, tris[:, :1])
    phi = cr_values(mesh.triangle_coords(tris), space.edge_gauss_points(edges)[:, None])
    phi *= np.array([1.0, -1.0])[:, None, None]
    dofs = np.where(present[..., None, None], space.local_dofs[tris], -1)
    return phi, dofs


def build_space(mesh: Mesh) -> CRSpace:
    return CRSpace(mesh)


@dataclass
class CRFunction:
    """A function in the constrained CR space: one coefficient per free DOF."""

    space: CRSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs_free,):
            raise ValueError(
                f"expected {self.space.n_dofs_free} coefficients, got {self.coeffs.shape}")

    @classmethod
    def zero(cls, space: CRSpace) -> "CRFunction":
        return cls(space, np.zeros(space.n_dofs_free))

    def _midpoint_values(self) -> np.ndarray:
        """Midpoint values per triangle: (nt, 3 local edges, 2 components).

        Constrained components contribute zero.
        """
        padded = np.append(self.coeffs, 0.0)
        return padded[self.space.local_dofs]  # -1 picks the trailing zero

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The piecewise-linear field at points inside every triangle.

        ``points`` is (nt, npts, 2), row t holding points of triangle t;
        returns (nt, npts, 2).
        """
        mesh = self.space.mesh
        return cr_values(mesh.vertices[mesh.triangles], points) @ self._midpoint_values()

    def gradients(self) -> np.ndarray:
        """Constant displacement gradient per triangle: (nt, 2, 2), [t, i, j] = d u_i / d x_j."""
        mesh = self.space.mesh
        grads, _ = cr_gradients(mesh.vertices[mesh.triangles])  # (nt, 3, 2)
        return np.swapaxes(self._midpoint_values(), 1, 2) @ grads

    def __sub__(self, other: "CRFunction") -> "CRFunction":
        if other.space is not self.space:
            raise ValueError("operands live on different CR spaces")
        return CRFunction(self.space, self.coeffs - other.coeffs)


def interpolate_cr(v, space: CRSpace) -> CRFunction:
    """Edge-mean interpolation onto the constrained CR space.

    ``v`` is a callable (x, y) -> length-2 sequence. Edge means use the
    2-point Gauss rule (exact for quadratic traces). Constrained DOFs are
    dropped: Dirichlet edges are skipped and the contact normal component
    is discarded.
    """
    dofs = np.stack([space.dof_x, space.dof_y], axis=1)
    edges = np.nonzero(np.any(dofs >= 0, axis=1))[0]
    pts = space.edge_gauss_points(edges).reshape(-1, 2)
    vals = np.array([np.asarray(v(x, y), dtype=float) for x, y in pts]).reshape(-1, 2, 2)
    coeffs = np.zeros(space.n_dofs_free + 1)
    coeffs[dofs[edges]] = 0.5 * (vals[:, 0] + vals[:, 1])  # -1 lands in the trailing slot
    return CRFunction(space, coeffs[:-1])


def prolongation_matrix(coarse_space: CRSpace, fine_space: CRSpace):
    """Sparse transfer operator from coarse to fine free coefficients.

    Each fine DOF takes the coarse field's value at the fine edge midpoint,
    evaluated inside the parent triangle of an adjacent fine triangle. Fine
    edges lying on a coarse edge see two parents; their traces are averaged.
    The result is cached on the fine space.
    """
    import scipy.sparse as sp

    fine_mesh = fine_space.mesh
    if fine_mesh.parent_mesh is not coarse_space.mesh:
        raise ValueError("fine space is not a uniform refinement of the coarse space")
    cached = getattr(fine_space, "_prolongation_cache", None)
    if cached is not None and cached[0] is coarse_space:
        return cached[1]

    # the parents of both adjacent fine triangles; a missing or shared
    # second parent repeats the first and gets no entries of its own
    et = fine_mesh.edge_tris
    p0 = fine_mesh.parent_map[et[:, 0]]
    p1 = np.where(et[:, 1] >= 0, fine_mesh.parent_map[et[:, 1]], p0)
    shared = p1 == p0
    parents = np.stack([p0, p1], axis=1)  # (ne, 2)
    traces = cr_values(coarse_space.mesh.triangle_coords(parents),
                       fine_mesh.midpoints[:, None, None, :])[:, :, 0]  # (ne, 2, 3)
    traces *= np.where(shared, 1.0, 0.5)[:, None, None]
    cols = coarse_space.local_dofs[parents]  # (ne, 2 parents, 3, 2 comps)
    cols[shared, 1] = -1
    rows = np.broadcast_to(
        np.stack([fine_space.dof_x, fine_space.dof_y], axis=1)[:, None, None, :], cols.shape)
    vals = np.broadcast_to(traces[..., None], cols.shape)
    keep = np.minimum(rows, cols) >= 0
    P = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(fine_space.n_dofs_free, coarse_space.n_dofs_free)).tocsr()
    fine_space._prolongation_cache = (coarse_space, P)
    return P


def prolongate(coarse: CRFunction, fine_space: CRSpace) -> CRFunction:
    """Transfer a coarse CR function to the next uniform refinement."""
    P = prolongation_matrix(coarse.space, fine_space)
    return CRFunction(fine_space, P @ coarse.coeffs)
