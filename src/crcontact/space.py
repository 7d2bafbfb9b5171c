"""Crouzeix-Raviart vector P1 space: DOF layout, basis, interpolation.

Degrees of freedom sit at edge midpoints, two components per edge.
Dirichlet edges carry no DOFs; contact edges carry only the tangential
component (the normal one is constrained to zero). The mesh keeps every contact
edge along a side, so the constraint is a pure coordinate elimination.

A ``CRSpace`` holds the one DOF map, ``edge_dofs``, with -1 for an
eliminated component, and computes the gradients of its basis
psi_j = 1 - 2 lambda_j once; every consumer reads them through the space.
``sparse_from_local`` is the one scatter: it builds each sparse operator and
free-DOF vector and drops the -1 entries, except the friction vector, whose
one distinct free DOF per contact edge takes a plain assignment.
``CRFunction.edge_values`` is the one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from crcontact.mesh import BoundaryLabel, Mesh, edge_sets, triangle_areas

#: 2-point Gauss abscissae on [-1, 1] (exact for cubics on an edge)
GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def cr_gradients(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant gradients of the three CR shape functions on triangles.

    Shape function j equals 1 on the edge opposite vertex j, i.e.
    psi_j = 1 - 2 * lambda_j with lambda_j the barycentric coordinate.
    ``coords`` is (..., 3, 2), one triangle or a stack of them. Returns
    (grads (..., 3, 2), areas (...)); raises ValueError, from
    ``triangle_areas``, on a non-finite corner or a degenerate or clockwise
    triangle.
    """
    p = np.asarray(coords, dtype=float)
    area = triangle_areas(p)
    # edge opposite vertex j runs from vertex j+1 to vertex j+2
    opp = np.roll(p, -2, axis=-2) - np.roll(p, -1, axis=-2)
    # grad psi_j = -2 grad lambda_j, and grad lambda_j = (-opp_y, opp_x) / (2 area)
    return np.stack([opp[..., 1], -opp[..., 0]], axis=-1) / area[..., None, None], area


def cr_values(origin: np.ndarray, grads: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CR shape function values at given points inside triangles.

    ``origin`` (..., 2) is each triangle's vertex 0, ``grads`` (..., 3, 2)
    its ``cr_gradients`` and ``points`` (..., npts, 2); the leading axes
    broadcast. Returns an (..., npts, 3) array whose rows sum to 1. Each
    psi_j is affine, so psi_j(x) = psi_j(p_0) + grad psi_j . (x - p_0) with
    psi(p_0) = (-1, 1, 1).
    """
    r = points - origin[..., None, :]
    # two broadcast products; a batched 2x3 matmul is slower on large stacks
    return (np.array([-1.0, 1.0, 1.0]) + r[..., 0, None] * grads[..., None, :, 0]
            + r[..., 1, None] * grads[..., None, :, 1])


def sparse_from_local(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR matrix from broadcast local triplets, summing repeats; a -1 row or column is dropped.

    A free-DOF vector is the one column ``sparse_from_local(dofs, 0, vals, (n, 1))``.
    The indices are cast to int32 before broadcasting, and a dropped triplet
    is sent to column 0 of one spare row, cut off after ``tocsr``, so no
    triplet is copied out by a mask: contiguous ``vals`` reach scipy as a
    view. Every kept row receives its triplets in input order, as the only
    entries of that row, which fixes the order in which repeats are summed.
    A repeat sum that cancels stays as an explicit zero: SuperLU's minimum
    degree ordering makes use of those entries (``assemble_stiffness``).
    """
    rows, cols, vals = np.broadcast_arrays(np.asarray(rows, dtype=np.int32),
                                           np.asarray(cols, dtype=np.int32), vals)
    n = shape[0]
    drop = (rows < 0) | (cols < 0)
    rows, cols = np.where(drop, n, rows).ravel(), np.where(drop, 0, cols).ravel()
    del drop  # not held while tocsr sums the repeats
    A = sp.coo_matrix((vals.reshape(-1), (rows, cols)), shape=(n + 1, shape[1])).tocsr()
    nnz = A.indptr[n]
    return sp.csr_matrix((A.data[:nnz], A.indices[:nnz], A.indptr[:n + 1]), shape=shape)


class CRSpace:
    """DOF layout of the constrained CR space on a classified mesh.

    Attributes
    ----------
    mesh : Mesh
    edge_dofs : (ne, 2) int array mapping edge, component -> free DOF index,
        -1 when the component is eliminated (Dirichlet edge, or contact normal)
    dof_x : (ne,) its first column, the x components
    local_dofs : (nt, 3, 2) ``edge_dofs`` per triangle / local edge / comp
    contact_edges : indices of contact edges
    contact_tangent_dof : free DOF of the tangential component per contact edge
    n_dofs_reported : 2 x (#edges - #Dirichlet edges)
    n_dofs_free : after eliminating the contact normal components
    grads : (nt, 3, 2) constant gradients of the three basis functions per
        triangle, from one ``cr_gradients`` call
    """

    def __init__(self, mesh: Mesh):
        labels = mesh.edge_labels
        # per-edge component count: none on Dirichlet edges, the tangential
        # one on contact edges, both otherwise; numbered in edge order
        contact = np.nonzero(labels == BoundaryLabel.CONTACT)[0]
        horizontal = np.isin(mesh.boundary_side(contact), ("bottom", "top"))  # tangent x, else y
        count = np.full(mesh.n_edges, 2, dtype=np.int64)
        count[labels == BoundaryLabel.DIRICHLET] = 0
        count[contact] = 1
        first = np.cumsum(count) - count
        edge_dofs = np.where(count[:, None] == 2, first[:, None] + np.arange(2), -1)
        edge_dofs[contact, 1 - horizontal] = first[contact]  # the tangential component
        edge_dofs.setflags(write=False)  # and so its view dof_x

        self.mesh = mesh
        self.edge_dofs = edge_dofs
        self.dof_x = edge_dofs[:, 0]
        self.n_dofs_free = int(count.sum())
        n_dirichlet = int(np.count_nonzero(labels == BoundaryLabel.DIRICHLET))
        self.n_dofs_reported = 2 * (mesh.n_edges - n_dirichlet)
        self.contact_edges = contact
        self.contact_tangent_dof = first[contact]

        self.local_dofs = edge_dofs[mesh.tri_edges]
        self.grads, _ = cr_gradients(mesh.vertices[mesh.triangles])
        for arr in (self.local_dofs, self.contact_edges,
                    self.contact_tangent_dof, self.grads):
            arr.setflags(write=False)

    def edge_gauss_points(self, e) -> np.ndarray:
        """The two Gauss points on edge(s) e: (2, 2), or (len(e), 2, 2)."""
        a = self.mesh.vertices[self.mesh.edges[e, 0]]
        b = self.mesh.vertices[self.mesh.edges[e, 1]]
        half = 0.5 * (b - a)
        return self.mesh.midpoints[e][..., None, :] + GAUSS2[:, None] * half[..., None, :]

    def basis_values(self, tris, points: np.ndarray) -> np.ndarray:
        """Basis values at points inside triangles ``tris``: tris.shape + (npts, 3).

        ``points`` is tris.shape + (npts, 2), or broadcasts to it.
        """
        origin = self.mesh.vertices[self.mesh.triangles[tris, 0]]
        return cr_values(origin, self.grads[tris], points)

    def jump_traces(self) -> tuple[np.ndarray, np.ndarray]:
        """Signed basis traces of both sides of each stabilized (interior or Dirichlet) edge.

        Returns (phi (k, 2 sides, 2 Gauss points, 3), dofs (k, 2 sides, 3, 2)):
        the first adjacent triangle counts +, the second -, and the dofs of a
        missing second triangle are -1. Computed on each call, not stored.
        """
        edges = edge_sets(self.mesh)
        tris = self.mesh.edge_tris[edges]
        present = tris >= 0
        tris = np.where(present, tris, tris[:, :1])
        phi = self.basis_values(tris, self.edge_gauss_points(edges)[:, None])
        phi *= np.array([1.0, -1.0])[:, None, None]
        dofs = np.where(present[..., None, None], self.local_dofs[tris], -1)
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

    def edge_values(self) -> np.ndarray:
        """Midpoint value per edge: (ne, 2 components), 0 where a component is eliminated."""
        padded = np.append(self.coeffs, 0.0)
        return padded[self.space.edge_dofs]  # -1: trailing 0

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
    edges = np.nonzero(np.any(space.edge_dofs >= 0, axis=1))[0]
    pts = space.edge_gauss_points(edges).reshape(-1, 2)
    vals = np.array([np.asarray(v(x, y), dtype=float) for x, y in pts]).reshape(-1, 2, 2)
    means = 0.5 * (vals[:, 0] + vals[:, 1])
    coeffs = sparse_from_local(space.edge_dofs[edges], 0, means, (space.n_dofs_free, 1))
    return CRFunction(space, coeffs.toarray().ravel())


def prolongation_matrix(coarse_space: CRSpace, fine_space: CRSpace):
    """Sparse transfer operator from coarse to fine free coefficients.

    Each fine DOF takes the coarse field's value at the fine edge midpoint,
    evaluated inside the parent triangle of an adjacent fine triangle. Fine
    edges lying on a coarse edge see two parents; their traces are averaged.
    Built on every call; a caller that applies P more than once keeps it.
    """
    fine_mesh = fine_space.mesh
    if fine_mesh.parent_mesh is not coarse_space.mesh:
        raise ValueError("fine space is not a uniform refinement of the coarse space")

    # the parents of both adjacent fine triangles; a missing or shared
    # second parent repeats the first and gets no entries of its own
    et = fine_mesh.edge_tris
    p0 = fine_mesh.parent_map[et[:, 0]]
    p1 = np.where(et[:, 1] >= 0, fine_mesh.parent_map[et[:, 1]], p0)
    shared = p1 == p0
    parents = np.stack([p0, p1], axis=1)  # (ne, 2)
    traces = coarse_space.basis_values(
        parents, fine_mesh.midpoints[:, None, None, :])[:, :, 0]  # (ne, 2, 3)
    traces *= np.where(shared, 1.0, 0.5)[:, None, None]
    cols = coarse_space.local_dofs[parents]  # (ne, 2 parents, 3, 2 comps)
    cols[shared, 1] = -1
    return sparse_from_local(fine_space.edge_dofs[:, None, None, :], cols, traces[..., None],
                             (fine_space.n_dofs_free, coarse_space.n_dofs_free))


def prolongate(coarse: CRFunction, fine_space: CRSpace) -> CRFunction:
    """Transfer a coarse CR function to the next uniform refinement."""
    P = prolongation_matrix(coarse.space, fine_space)
    return CRFunction(fine_space, P @ coarse.coeffs)
