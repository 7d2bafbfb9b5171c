"""Triangulations of axis-aligned rectangles with labeled boundary edges.

Provides structured grid generation, uniform red refinement with a
parent map, and edge classification into interior / Dirichlet / Neumann /
contact sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class BoundaryLabel(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2
    CONTACT = 3


SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class BoundarySegment:
    """An axis-aligned interval on one side of the rectangle.

    ``lo`` and ``hi`` are coordinates along the side (y for left/right,
    x for bottom/top).
    """

    side: str
    lo: float
    hi: float
    label: BoundaryLabel

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}, expected one of {SIDES}")
        if not self.lo < self.hi:
            raise ValueError(f"segment on {self.side}: need lo < hi, got [{self.lo}, {self.hi}]")
        if not isinstance(self.label, BoundaryLabel):
            raise ValueError(f"segment on {self.side}: label must be a BoundaryLabel, "
                             f"got {self.label!r}")
        if self.label == BoundaryLabel.INTERIOR:
            raise ValueError("boundary segments cannot be labeled INTERIOR")


def _check_extent(x_min, x_max, y_min, y_max) -> None:
    if not (-np.inf < x_min < x_max < np.inf and -np.inf < y_min < y_max < np.inf):
        raise ValueError("domain must have finite, positive extent in both directions")


def triangle_areas(corners) -> np.ndarray:
    """Areas of triangles from their corners (..., 3, 2), counterclockwise positive.

    Raises ValueError if any corner is not finite, or if any triangle is
    degenerate or clockwise.
    """
    p = np.asarray(corners, dtype=float)
    if not np.all(np.isfinite(p)):  # before the arithmetic, which would warn on inf
        raise ValueError("triangle has a non-finite vertex")
    d1 = p[..., 1, :] - p[..., 0, :]
    d2 = p[..., 2, :] - p[..., 0, :]
    areas = 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    if not np.all(areas > 0):
        raise ValueError("triangle is degenerate or clockwise")
    return areas


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle with a labeled decomposition of its boundary."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    boundary_spec: tuple[BoundarySegment, ...]

    def __post_init__(self):
        _check_extent(self.x_min, self.x_max, self.y_min, self.y_max)
        if not any(s.label == BoundaryLabel.DIRICHLET for s in self.boundary_spec):
            raise ValueError("the Dirichlet boundary part must have positive length")

    @staticmethod
    def rectangle(x_min, x_max, y_min, y_max, *, left, right, bottom, top) -> "Domain":
        """Convenience constructor labeling each full side."""
        _check_extent(x_min, x_max, y_min, y_max)  # before the sides, which would name one
        segs = (
            BoundarySegment("left", y_min, y_max, left),
            BoundarySegment("right", y_min, y_max, right),
            BoundarySegment("bottom", x_min, x_max, bottom),
            BoundarySegment("top", x_min, x_max, top),
        )
        return Domain(x_min, x_max, y_min, y_max, segs)

    @property
    def tol(self) -> float:
        """Absolute tolerance of every test against the sides: 1e-12 times the diagonal."""
        return 1e-12 * float(np.hypot(self.x_max - self.x_min, self.y_max - self.y_min))


class Mesh:
    """Immutable triangulation with classified edges, its vertices in the closed rectangle.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    edges : (ne, 2) int array, each row sorted; rows ascend by their (low,
        high) vertex pair, the order of the CR DOF numbering
    edge_tris : (ne, 2) int array of adjacent triangles, -1 when absent; an
        edge's triangles come in (local edge, triangle) order
    tri_edges : (nt, 3) int array; entry j is the edge opposite local vertex j
    edge_labels : (ne,) int array of BoundaryLabel values
    midpoints : (ne, 2) edge midpoints
    edge_lengths : (ne,) edge lengths
    areas : (nt,) triangle areas
    parent_map : (nt,) int array mapping each triangle to its coarse parent,
        present only on refined meshes, whose children of parent t are 4t..4t+3
    parent_mesh : the mesh this one was refined from, or None; a refined
        mesh inherits its boundary labels from it (see ``refine_uniform``)
    """

    def __init__(self, vertices, triangles, domain, parent_mesh=None):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        if triangles.size and not 0 <= triangles.min() <= triangles.max() < len(vertices):
            raise ValueError(f"triangle vertex indices must lie in [0, {len(vertices)})")

        self.vertices = vertices
        self.triangles = triangles
        # reordering a clockwise triangle would renumber its local edges
        self.areas = triangle_areas(vertices[triangles])
        self.domain = domain
        self.parent_mesh = parent_mesh
        nt = self.n_triangles
        if parent_mesh is not None and nt != 4 * parent_mesh.n_triangles:
            raise ValueError(f"refined mesh has {nt} triangles, not 4 x {parent_mesh.n_triangles}")
        self.parent_map = None if parent_mesh is None else np.arange(nt) // 4

        self._build_edges()
        # inside the closed rectangle, a boundary edge lies along the side its midpoint is on
        lo, hi = np.array([[domain.x_min, domain.y_min], [domain.x_max, domain.y_max]])
        outside = ~np.all((lo - domain.tol <= vertices) & (vertices <= hi + domain.tol), axis=1)
        if np.any(outside):
            raise ValueError(f"vertices {vertices[outside].tolist()} lie outside the rectangle")
        self._classify_edges()
        for arr in (self.vertices, self.triangles, self.edges, self.edge_tris,
                    self.tri_edges, self.edge_labels, self.areas,
                    self.midpoints, self.edge_lengths):
            arr.setflags(write=False)
        if self.parent_map is not None:
            self.parent_map.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    def _build_edges(self):
        t = self.triangles
        nt = len(t)
        # row j * nt + i is edge j of triangle i, opposite local vertex j
        raw = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
        # keys ascend as the (low, high) pairs do; unique keeps each key's first row
        key = raw[:, 0] * self.n_vertices + raw[:, 1]
        _, first, inv, counts = np.unique(key, return_index=True, return_inverse=True,
                                          return_counts=True)
        edges = raw[first]

        self.midpoints = 0.5 * (self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]])
        if np.any(counts > 2):
            raise ValueError(f"edge at {self._at(np.argmax(counts > 2))} shared by more than "
                             "two triangles")
        # adjacent triangles of each edge: those of its first and last rows
        last = len(key) - 1 - np.unique(key[::-1], return_index=True)[1]

        self.edges = edges
        self.tri_edges = inv.reshape(3, nt).T
        self.edge_tris = np.column_stack([first % nt, np.where(counts == 2, last % nt, -1)])
        dv = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        self.edge_lengths = np.hypot(dv[:, 0], dv[:, 1])

    def _classify_edges(self):
        labels = np.full(len(self.edges), int(BoundaryLabel.INTERIOR), dtype=np.int64)
        boundary = np.nonzero(self.edge_tris[:, 1] < 0)[0]
        parent = self.parent_mesh
        if parent is not None:
            # a boundary child edge joins a parent vertex a to the midpoint
            # vertex nv + e of its boundary parent edge e, whose label it takes
            a, m = self.edges[boundary].T  # rows are sorted, so a < m
            nv = parent.n_vertices
            e = np.clip(m - nv, 0, parent.n_edges - 1)
            inherited = ((a < nv) & (m - nv == e) & (parent.edge_tris[e, 1] < 0)
                         & np.any(parent.edges[e] == a[:, None], axis=1))
            if not np.all(inherited):
                j = np.argmin(inherited)
                raise ValueError(f"boundary edge {(int(a[j]), int(m[j]))} has no inherited label")
            labels[boundary] = parent.edge_labels[e]
        else:
            dom, tol = self.domain, self.domain.tol
            side = self.boundary_side(boundary)
            mx, my = self.midpoints[boundary].T
            coord = np.where(np.isin(side, ("left", "right")), my, mx)
            # the first segment of the spec that holds an edge labels it
            found = np.zeros(len(boundary), dtype=bool)
            for seg in dom.boundary_spec:
                hit = ~found & (side == seg.side) & (seg.lo - tol <= coord) & (coord <= seg.hi + tol)
                labels[boundary[hit]] = int(seg.label)
                found |= hit
            if not np.all(found):
                j = np.argmin(found)
                raise ValueError(f"boundary edge at {self._at(boundary[j])} on side "
                                 f"{str(side[j])!r} is unlabeled")
        self.edge_labels = labels

    def _at(self, e) -> str:  # midpoints of edge(s) e in plain numbers: "(1.0, 0.0), (2.0, 1.0)"
        return ", ".join(str((float(x), float(y))) for x, y in self.midpoints[e].reshape(-1, 2))

    # -- queries ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def boundary_side(self, e):
        """Which rectangle side boundary edge(s) e lie on: an array of names, 0-d for one edge."""
        e = np.asarray(e)
        if np.any(interior := self.edge_tris[e, 1] >= 0):
            raise ValueError(f"edges at {self._at(e[interior])} are interior")
        dom, tol = self.domain, self.domain.tol
        mx, my = self.midpoints[e].T
        on_side = [np.abs(mx - dom.x_min) <= tol, np.abs(mx - dom.x_max) <= tol,
                   np.abs(my - dom.y_min) <= tol, np.abs(my - dom.y_max) <= tol]
        if np.any(off := ~np.any(on_side, axis=0)):
            raise ValueError(f"boundary edges at {self._at(e[off])} are not on the rectangle boundary")
        return np.select(on_side, SIDES, default="")


def generate_structured(domain: Domain, n: int) -> Mesh:
    """Uniform n-by-n grid of squares, each split along the same diagonal.

    The diagonal runs lower-left to upper-right in every square. Vertex
    coordinates are exact multiples of the grid spacing.
    """
    if n < 1:
        raise ValueError("need at least one subdivision per side")
    dx = (domain.x_max - domain.x_min) / n
    dy = (domain.y_max - domain.y_min) / n
    xs = domain.x_min + dx * np.arange(n + 1)
    ys = domain.y_min + dy * np.arange(n + 1)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left vertex j * (n + 1) + i of square (i, j), squares row by row
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.stack([np.column_stack([v00, v10, v11]),
                     np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)
    return Mesh(vertices, tris, domain)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split each triangle into 4 congruent children.

    Boundary labels are inherited from the parent edges; the children of
    triangle t are 4t..4t+3, which the refined mesh's parent map records.
    """
    nv = mesh.n_vertices
    midvert = nv + np.arange(mesh.n_edges)  # one new vertex per edge
    vertices = np.vstack([mesh.vertices, mesh.midpoints])

    t = mesh.triangles
    te = mesh.tri_edges
    m0, m1, m2 = midvert[te[:, 0]], midvert[te[:, 1]], midvert[te[:, 2]]
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    # children: three corner triangles plus the center one
    children = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    children[0::4] = np.column_stack([v0, m2, m1])
    children[1::4] = np.column_stack([m2, v1, m0])
    children[2::4] = np.column_stack([m1, m0, v2])
    children[3::4] = np.column_stack([m0, m1, m2])
    return Mesh(vertices, children, mesh.domain, parent_mesh=mesh)


def edge_sets(mesh: Mesh) -> np.ndarray:
    """The stabilization set E^0: indices of the interior and Dirichlet edges, ascending."""
    return np.nonzero(np.isin(mesh.edge_labels,
                              (BoundaryLabel.INTERIOR, BoundaryLabel.DIRICHLET)))[0]
