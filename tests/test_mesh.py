"""Mesh generation, classification, refinement and edge-set partitioning."""

import warnings

import numpy as np
import pytest

from crcontact.mesh import (
    BoundaryLabel,
    BoundarySegment,
    Domain,
    Mesh,
    edge_sets,
    generate_structured,
    refine_uniform,
)


def _all_neumann_ish_domain():
    """A domain whose Dirichlet part is too short to capture any 2x2 edge.

    The right side carries Dirichlet on (0, 0.5) only; with grid spacing 2
    every right-side edge midpoint (y = 1, 3) falls in the Neumann part, so
    the mesh has no Dirichlet edges.
    """
    segs = (
        BoundarySegment("right", 0.0, 0.5, BoundaryLabel.DIRICHLET),
        BoundarySegment("right", 0.5, 4.0, BoundaryLabel.NEUMANN),
        BoundarySegment("left", 0.0, 4.0, BoundaryLabel.NEUMANN),
        BoundarySegment("top", 0.0, 4.0, BoundaryLabel.NEUMANN),
        BoundarySegment("bottom", 0.0, 4.0, BoundaryLabel.NEUMANN),
    )
    return Domain(0.0, 4.0, 0.0, 4.0, segs)


def _topology_oracle(triangles):
    """edges, tri_edges and edge_tris from a dict over the rows, row j * nt + i being
    edge j (opposite local vertex j) of triangle i."""
    nt = len(triangles)

    def side(i, j):  # edge j of triangle i as its sorted vertex pair
        return tuple(sorted(int(v) for k, v in enumerate(triangles[i]) if k != j))

    tris_of = {}  # sorted vertex pair -> its triangles, in row order
    for j in range(3):
        for i in range(nt):
            tris_of.setdefault(side(i, j), []).append(i)
    edges = sorted(tris_of)
    index = {pair: e for e, pair in enumerate(edges)}
    tri_edges = [[index[side(i, j)] for j in range(3)] for i in range(nt)]
    edge_tris = [tris_of[pair] + [-1] * (2 - len(tris_of[pair])) for pair in edges]
    return edges, tri_edges, edge_tris


class TestDomain:
    def test_rejects_empty_extent(self):
        # the extent is checked before the zero-width bottom and top segments
        with pytest.raises(ValueError,
                           match="domain must have finite, positive extent in both directions"):
            Domain.rectangle(0, 0, 0, 1,
                             left=BoundaryLabel.DIRICHLET, right=BoundaryLabel.NEUMANN,
                             bottom=BoundaryLabel.NEUMANN, top=BoundaryLabel.NEUMANN)

    @pytest.mark.parametrize("bounds", [(0, np.inf, 0, 1), (-np.inf, 1, 0, 1), (0, 1, 0, np.inf),
                                        (np.nan, 1, 0, 1), (0, np.nan, 0, 1),
                                        (0, 1, np.nan, 1), (0, 1, 0, np.nan)],
                             ids=["x_max-inf", "x_min-inf", "y_max-inf",
                                  "x_min-nan", "x_max-nan", "y_min-nan", "y_max-nan"])
    def test_rejects_non_finite_extent(self, bounds):
        with pytest.raises(ValueError,
                           match="domain must have finite, positive extent in both directions"):
            Domain.rectangle(*bounds,
                             left=BoundaryLabel.DIRICHLET, right=BoundaryLabel.NEUMANN,
                             bottom=BoundaryLabel.NEUMANN, top=BoundaryLabel.NEUMANN)

    def test_requires_dirichlet_part(self):
        with pytest.raises(ValueError,
                           match="the Dirichlet boundary part must have positive length"):
            Domain.rectangle(0, 1, 0, 1,
                             left=BoundaryLabel.NEUMANN, right=BoundaryLabel.NEUMANN,
                             bottom=BoundaryLabel.NEUMANN, top=BoundaryLabel.NEUMANN)

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="unknown side 'diagonal', expected one of"):
            BoundarySegment("diagonal", 0, 1, BoundaryLabel.DIRICHLET)
        with pytest.raises(ValueError, match=r"segment on left: need lo < hi, got \[1, 1\]"):
            BoundarySegment("left", 1, 1, BoundaryLabel.DIRICHLET)
        with pytest.raises(ValueError, match="boundary segments cannot be labeled INTERIOR"):
            BoundarySegment("left", 0, 1, BoundaryLabel.INTERIOR)

    @pytest.mark.parametrize("label", ["neumann", 2, None])
    def test_rejects_label_that_is_not_a_boundary_label(self, label):
        with pytest.raises(ValueError, match="segment on left: label must be a BoundaryLabel"):
            Domain.rectangle(0, 4, 0, 4, left=label, right=BoundaryLabel.DIRICHLET,
                             bottom=BoundaryLabel.CONTACT, top=BoundaryLabel.NEUMANN)


class TestGenerateStructured:
    def test_counts_2x2(self, mesh2):
        # 2x2 grid of squares, two triangles each
        assert mesh2.n_vertices == 9
        assert mesh2.n_edges == 16
        assert mesh2.n_triangles == 8

    def test_counts_4x4(self, mesh4):
        assert mesh4.n_vertices == 25
        assert mesh4.n_edges == 56
        assert mesh4.n_triangles == 32

    def test_boundary_labels_2x2(self, mesh2):
        # right side clamped, bottom in contact
        labels = mesh2.edge_labels
        assert np.count_nonzero(labels == BoundaryLabel.DIRICHLET) == 2
        assert np.count_nonzero(labels == BoundaryLabel.CONTACT) == 2
        assert np.count_nonzero(labels == BoundaryLabel.NEUMANN) == 4
        for e in np.nonzero(labels == BoundaryLabel.DIRICHLET)[0]:
            assert mesh2.boundary_side(e) == "right"
        for e in np.nonzero(labels == BoundaryLabel.CONTACT)[0]:
            assert mesh2.boundary_side(e) == "bottom"

    def test_first_listed_segment_wins(self):
        # (0, 2) Dirichlet is listed before (0, 4) contact on the bottom
        segs = (
            BoundarySegment("bottom", 0.0, 2.0, BoundaryLabel.DIRICHLET),
            BoundarySegment("bottom", 0.0, 4.0, BoundaryLabel.CONTACT),
            BoundarySegment("right", 0.0, 4.0, BoundaryLabel.DIRICHLET),
            BoundarySegment("left", 0.0, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("top", 0.0, 4.0, BoundaryLabel.NEUMANN),
        )
        m = generate_structured(Domain(0.0, 4.0, 0.0, 4.0, segs), 4)
        bottom = np.nonzero((m.edge_tris[:, 1] < 0) & (m.midpoints[:, 1] == 0.0))[0]
        x = m.midpoints[bottom, 0]
        expected = np.where(x < 2.0, BoundaryLabel.DIRICHLET, BoundaryLabel.CONTACT)
        assert np.array_equal(m.edge_labels[bottom], expected)

    def test_rejects_clockwise_triangle(self, mesh2):
        # reordering it would silently renumber the triangle's local edges
        tris = mesh2.triangles.copy()
        tris[3] = tris[3, [0, 2, 1]]
        with pytest.raises(ValueError, match="triangle is degenerate or clockwise"):
            Mesh(mesh2.vertices, tris, mesh2.domain)

    def test_rejects_nan_vertex(self, mesh2):
        vertices = mesh2.vertices.copy()
        vertices[4] = (np.nan, 2.0)  # the interior vertex of the 2 x 2 grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning before the refusal
            with pytest.raises(ValueError, match="triangle has a non-finite vertex"):
                Mesh(vertices, mesh2.triangles, mesh2.domain)

    def test_rejects_inf_vertex(self, mesh2):
        # refused before the area formula, whose inf - inf would warn first
        vertices = mesh2.vertices.copy()
        vertices[4] = (np.inf, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning before the refusal
            with pytest.raises(ValueError, match="triangle has a non-finite vertex"):
                Mesh(vertices, mesh2.triangles, mesh2.domain)

    def test_rejects_zero_subdivisions(self, domain):
        with pytest.raises(ValueError, match="need at least one subdivision per side"):
            generate_structured(domain, 0)

    def test_rejects_unlabeled_boundary(self):
        # Dirichlet only on part of the right side, rest of the boundary bare
        segs = (BoundarySegment("right", 0.0, 4.0, BoundaryLabel.DIRICHLET),)
        dom = Domain(0.0, 4.0, 0.0, 4.0, segs)
        with pytest.raises(ValueError,
                           match=r"^boundary edge at \(1\.0, 0\.0\) on side 'bottom' is unlabeled$"):
            generate_structured(dom, 2)

    @pytest.mark.parametrize("vertices,triangles,message", [
        ([0.0, 1.0, 2.0], [[0, 1, 2]], r"vertices must be an \(nv, 2\) array"),
        ([[0, 0], [1, 0], [0, 1]], [0, 1, 2], r"triangles must be an \(nt, 3\) array"),
        # numpy would read -1 as vertex 2, the same vertex under a second name
        ([[0, 0], [4, 0], [0, 4]], [[0, 1, -1]], r"^triangle vertex indices must lie in \[0, 3\)$"),
        ([[0, 0], [4, 0], [0, 4]], [[0, 1, 3]], r"^triangle vertex indices must lie in \[0, 3\)$"),
        # three counterclockwise triangles on the edge (0, 0)-(1, 0)
        ([[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, -1]], [[0, 1, 2], [0, 1, 3], [1, 0, 4]],
         r"^edge at \(0\.5, 0\.0\) shared by more than two triangles$"),
        # the square [0, 2]^2 in the domain [0, 4]^2: its right and top edges
        # are boundary edges of the mesh but not of the domain
        ([[0, 0], [2, 0], [2, 2], [0, 2]], [[0, 1, 2], [0, 2, 3]],
         r"boundary edges at \(2\.0, 1\.0\), \(1\.0, 2\.0\) are not on the rectangle boundary$"),
        # the edges from (0, 1) and from (4, 1) to (2, -1) have midpoints on
        # the bottom (contact) side but run at 45 degrees to it
        ([[0, 1], [2, -1], [4, 1], [0, 7]], [[0, 1, 2], [0, 2, 3]],
         r"^vertices \[\[2\.0, -1\.0\], \[0\.0, 7\.0\]\] lie outside the rectangle$"),
        # likewise the edges from (0, 3) and from (4, 3) to (2, 5) on the top (Neumann) side
        ([[0, 0], [4, 0], [4, 3], [2, 5], [0, 3]], [[0, 1, 2], [0, 2, 4], [4, 2, 3]],
         r"^vertices \[\[2\.0, 5\.0\]\] lie outside the rectangle$"),
    ], ids=["vertex-shape", "triangle-shape", "negative-index", "index-past-end",
            "edge-in-three-triangles", "off-boundary", "oblique-contact-edges",
            "oblique-neumann-edges"])
    def test_rejects_bad_triangulation(self, domain, vertices, triangles, message):
        with pytest.raises(ValueError, match=message):
            Mesh(vertices, triangles, domain)

    def test_boundary_side_rejects_interior_edges(self, mesh2):
        interior = np.nonzero(mesh2.edge_tris[:, 1] >= 0)[0]
        assert mesh2.boundary_side(0) == "bottom"
        with pytest.raises(ValueError, match=r"^edges at \(1\.0, 1\.0\) are interior$"):
            mesh2.boundary_side(interior[0])
        with pytest.raises(ValueError, match=r"^edges at \(1\.0, 1\.0\), \(2\.0, 1\.0\), "):
            mesh2.boundary_side(np.arange(mesh2.n_edges))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_euler_relation(self, domain, n):
        m = generate_structured(domain, n)
        assert m.n_vertices - m.n_edges + m.n_triangles == 1

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_edge_adjacency_counts(self, domain, n):
        m = generate_structured(domain, n)
        boundary = m.edge_tris[:, 1] < 0
        assert np.all(m.edge_tris[:, 0] >= 0)
        # interior edges carry exactly two distinct triangles
        inner = m.edge_tris[~boundary]
        assert np.all(inner[:, 0] != inner[:, 1])

    def test_positive_areas_and_total(self, mesh4):
        assert np.all(mesh4.areas > 0)
        assert mesh4.areas.sum() == pytest.approx(16.0, rel=1e-14)

    def test_unique_midpoints(self, mesh4):
        tol = mesh4.domain.tol
        mids = mesh4.midpoints
        for i in range(len(mids)):
            d = np.hypot(*(mids[i + 1:] - mids[i]).T)
            assert np.all(d > tol)


class TestEdgeTopology:
    """The edge order is the CR DOF numbering: edges ascend by their (low, high)
    vertex pair, and an edge's triangles come in (local edge, triangle) order."""

    @staticmethod
    def _assert_matches_oracle(mesh):
        edges, tri_edges, edge_tris = _topology_oracle(mesh.triangles)
        assert mesh.edges.tolist() == [list(pair) for pair in edges]
        assert mesh.tri_edges.tolist() == tri_edges
        assert mesh.edge_tris.tolist() == edge_tris

    @pytest.mark.parametrize("refinements", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structured_and_refined_match_oracle(self, domain, n, refinements):
        mesh = generate_structured(domain, n)
        for _ in range(refinements):
            mesh = refine_uniform(mesh)
        self._assert_matches_oracle(mesh)

    def test_out_of_order_triangles_match_oracle(self, domain):
        # the 2 x 2 grid of [0, 4]^2, vertex 3j + i at (2i, 2j), its triangles
        # listed out of order with rotated corners and square (0, 0) split
        # along its other diagonal
        vertices = [[2 * i, 2 * j] for j in range(3) for i in range(3)]
        triangles = [[8, 4, 5], [7, 4, 8], [6, 3, 7], [4, 7, 3],
                     [5, 1, 2], [4, 1, 5], [3, 1, 4], [1, 3, 0]]
        mesh = Mesh(vertices, triangles, domain)
        self._assert_matches_oracle(mesh)
        # edge (1, 4) is local edge 2 of triangle 5 (row 21) and local edge 0
        # of triangle 6 (row 6), so triangle 6 comes first
        e = mesh.edges.tolist().index([1, 4])
        assert mesh.edge_tris[e].tolist() == [6, 5]


class TestRefineUniform:
    def test_counts(self, mesh2, refined2):
        assert refined2.n_triangles == 32
        assert refined2.n_edges == 56
        assert refined2.n_vertices == 25

    def test_edge_lengths_halve(self, mesh2, refined2):
        assert sorted(set(np.round(mesh2.edge_lengths, 12))) == [2.0, pytest.approx(2 * np.sqrt(2))]
        assert refined2.edge_lengths.max() == pytest.approx(mesh2.edge_lengths.max() / 2, rel=1e-15)
        assert refined2.edge_lengths.min() == pytest.approx(mesh2.edge_lengths.min() / 2, rel=1e-15)

    def test_parent_map_total_with_four_children(self, mesh2, refined2):
        assert refined2.parent_map is not None
        counts = np.bincount(refined2.parent_map, minlength=mesh2.n_triangles)
        assert np.all(counts == 4)
        assert refined2.parent_mesh is mesh2

    def test_area_preserved_per_parent(self, mesh2, refined2):
        child_sums = np.zeros(mesh2.n_triangles)
        np.add.at(child_sums, refined2.parent_map, refined2.areas)
        assert np.allclose(child_sums, mesh2.areas, rtol=1e-15)

    def test_labels_inherited(self, mesh2, refined2):
        for lab in (BoundaryLabel.DIRICHLET, BoundaryLabel.CONTACT, BoundaryLabel.NEUMANN):
            coarse = np.count_nonzero(mesh2.edge_labels == lab)
            fine = np.count_nonzero(refined2.edge_labels == lab)
            assert fine == 2 * coarse

    def test_boundary_children_carry_parent_label(self):
        # segment ends at y = 1 and x = 3 fall inside edges of the 2x2 grid,
        # so geometric classification of a finer grid labels some children
        # differently from their parent edge; refinement must not
        segs = (
            BoundarySegment("left", 0.0, 1.0, BoundaryLabel.DIRICHLET),
            BoundarySegment("left", 1.0, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("bottom", 0.0, 3.0, BoundaryLabel.CONTACT),
            BoundarySegment("bottom", 3.0, 4.0, BoundaryLabel.DIRICHLET),
            BoundarySegment("right", 0.0, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("top", 0.0, 4.0, BoundaryLabel.NEUMANN),
        )
        dom = Domain(0.0, 4.0, 0.0, 4.0, segs)
        coarse = generate_structured(dom, 2)
        for _ in range(3):
            fine = refine_uniform(coarse)
            cb = np.nonzero(coarse.edge_tris[:, 1] < 0)[0]
            fb = np.nonzero(fine.edge_tris[:, 1] < 0)[0]
            # the parent of a boundary child is the coarse boundary edge that
            # holds the child's midpoint strictly inside
            a = coarse.vertices[coarse.edges[cb, 0]]
            d = coarse.vertices[coarse.edges[cb, 1]] - a
            r = fine.midpoints[fb][:, None, :] - a
            cross = d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0]
            s = np.sum(r * d, axis=-1) / np.sum(d * d, axis=-1)
            holds = (np.abs(cross) <= 1e-12) & (s > 0) & (s < 1)
            assert np.all(holds.sum(axis=1) == 1)
            parent = cb[np.argmax(holds, axis=1)]
            assert np.array_equal(fine.edge_labels[fb], coarse.edge_labels[parent])
            coarse = fine
        # the policy matters here: the 16x16 grid classified from the segments
        # labels some boundary edges differently
        direct = generate_structured(dom, 16)
        assert not np.array_equal(np.sort(direct.edge_labels), np.sort(coarse.edge_labels))

    def test_label_mismatch_raises(self, mesh2, mesh4):
        # mesh4 has four times mesh2's triangles, but its grid numbering
        # does not make its boundary edges children of mesh2's edges
        with pytest.raises(ValueError, match=r"boundary edge \(\d+, \d+\) has no inherited label"):
            Mesh(mesh4.vertices, mesh4.triangles, mesh2.domain, parent_mesh=mesh2)

    def test_parent_needs_four_times_the_triangles(self, mesh2, mesh4, refined2):
        # refined2 has 32 triangles; mesh4 as a parent would need 128
        with pytest.raises(ValueError, match="refined mesh has 32 triangles, not 4 x 32"):
            Mesh(refined2.vertices, refined2.triangles, mesh2.domain, parent_mesh=mesh4)

    def test_two_refinements_match_direct_generation(self, domain, mesh2):
        twice = refine_uniform(refine_uniform(mesh2))
        direct = generate_structured(domain, 8)
        assert twice.n_vertices == direct.n_vertices
        assert twice.n_triangles == direct.n_triangles
        assert twice.n_edges == direct.n_edges

        def vertex_key(mesh):
            return np.lexsort((mesh.vertices[:, 1], mesh.vertices[:, 0]))

        va = twice.vertices[vertex_key(twice)]
        vb = direct.vertices[vertex_key(direct)]
        assert np.array_equal(va, vb)  # grid coordinates are bit-stable

        def edge_sig(mesh):
            sig = [(mesh.midpoints[e, 0], mesh.midpoints[e, 1], int(mesh.edge_labels[e]))
                   for e in range(mesh.n_edges)]
            return sorted(sig)

        assert edge_sig(twice) == edge_sig(direct)

    def test_euler_relation_preserved(self, refined2):
        assert refined2.n_vertices - refined2.n_edges + refined2.n_triangles == 1


class TestEdgeSets:
    def test_partition_2x2(self, mesh2):
        # stabilization set: the 8 interior and 2 Dirichlet edges, ascending
        stabilized = edge_sets(mesh2)
        want = [e for e in range(mesh2.n_edges)
                if mesh2.edge_labels[e] in (BoundaryLabel.INTERIOR, BoundaryLabel.DIRICHLET)]
        assert len(want) == 10
        assert stabilized.tolist() == want
        assert np.count_nonzero(mesh2.edge_labels[stabilized] == BoundaryLabel.DIRICHLET) == 2

    def test_no_dirichlet_edges_means_interior_only(self):
        m = generate_structured(_all_neumann_ish_domain(), 2)
        assert not np.any(m.edge_labels == BoundaryLabel.DIRICHLET)
        interior = np.nonzero(m.edge_tris[:, 1] >= 0)[0]
        assert np.array_equal(edge_sets(m), interior)

