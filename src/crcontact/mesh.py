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
        if self.label == BoundaryLabel.INTERIOR:
            raise ValueError("boundary segments cannot be labeled INTERIOR")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle with a labeled decomposition of its boundary."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    boundary_spec: tuple[BoundarySegment, ...]

    def __post_init__(self):
        if not (-np.inf < self.x_min < self.x_max < np.inf
                and -np.inf < self.y_min < self.y_max < np.inf):
            raise ValueError("domain must have finite, positive extent in both directions")
        if not any(s.label == BoundaryLabel.DIRICHLET for s in self.boundary_spec):
            raise ValueError("the Dirichlet boundary part must have positive length")

    @staticmethod
    def rectangle(x_min, x_max, y_min, y_max, *, left, right, bottom, top) -> "Domain":
        """Convenience constructor labeling each full side."""
        segs = (
            BoundarySegment("left", y_min, y_max, left),
            BoundarySegment("right", y_min, y_max, right),
            BoundarySegment("bottom", x_min, x_max, bottom),
            BoundarySegment("top", x_min, x_max, top),
        )
        return Domain(x_min, x_max, y_min, y_max, segs)

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.x_max - self.x_min, self.y_max - self.y_min))


class Mesh:
    """Immutable triangulation with classified edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    edges : (ne, 2) int array, each row sorted
    edge_tris : (ne, 2) int array of adjacent triangles, -1 when absent
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

        # reordering a clockwise triangle would renumber its local edges
        a = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
        b = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
        areas = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        if np.any(areas <= 0):
            raise ValueError("triangle is degenerate or clockwise")

        self.vertices = vertices
        self.triangles = triangles
        self.areas = areas
        self.domain = domain
        self.parent_mesh = parent_mesh
        nt = self.n_triangles
        if parent_mesh is not None and nt != 4 * parent_mesh.n_triangles:
            raise ValueError(f"refined mesh has {nt} triangles, not 4 x {parent_mesh.n_triangles}")
        self.parent_map = None if parent_mesh is None else np.arange(nt) // 4

        self._build_edges()
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
        # edge j of triangle is opposite local vertex j
        raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        raw_sorted = np.sort(raw, axis=1)
        edges, inv = np.unique(raw_sorted, axis=0, return_inverse=True)
        inv = inv.ravel()
        ne = len(edges)
        tri_edges = inv.reshape(3, nt).T

        # adjacent triangles of each edge in (local edge, triangle) order
        counts = np.bincount(inv, minlength=ne)
        if np.any(counts > 2):
            raise ValueError(f"edge {int(np.argmax(counts > 2))} shared by more than two triangles")
        tris = np.argsort(inv, kind="stable") % nt
        start = np.cumsum(counts) - counts
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        edge_tris[:, 0] = tris[start]
        second = counts == 2
        edge_tris[second, 1] = tris[start[second] + 1]

        self.edges = edges
        self.tri_edges = tri_edges
        self.edge_tris = edge_tris
        self.midpoints = 0.5 * (self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]])
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
            dom = self.domain
            tol = 1e-12 * dom.diameter
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
                raise ValueError(f"boundary edge at {(mx[j], my[j])} on side {side[j]!r} is unlabeled")
        self.edge_labels = labels

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
        """Which rectangle side boundary edge(s) e lie on: a name, or an array of names."""
        e = np.asarray(e)
        if np.any(self.edge_tris[e, 1] >= 0):
            raise ValueError(f"edge {e} is interior")
        dom = self.domain
        tol = 1e-12 * dom.diameter
        mx, my = self.midpoints[e].T
        on_side = [np.abs(mx - dom.x_min) <= tol, np.abs(mx - dom.x_max) <= tol,
                   np.abs(my - dom.y_min) <= tol, np.abs(my - dom.y_max) <= tol]
        if not np.all(np.any(on_side, axis=0)):
            raise ValueError(f"boundary edge {e} is not on the rectangle boundary")
        side = np.select(on_side, SIDES, default="")
        return str(side) if side.ndim == 0 else side


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
