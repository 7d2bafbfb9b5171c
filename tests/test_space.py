"""CR space layout, local basis, interpolation and prolongation."""

import importlib
import pkgutil

import numpy as np
import pytest

import crcontact
from crcontact.analysis import EnergyNormEvaluator, broken_h1_seminorm_error
from crcontact.assembly import assemble_stiffness
from crcontact.mesh import (
    BoundaryLabel,
    Domain,
    generate_structured,
    refine_uniform,
)
from crcontact.solver import TimeGrid, march
from crcontact.space import (
    CRFunction,
    build_space,
    cr_gradients,
    cr_values,
    interpolate_cr,
    prolongate,
    prolongation_matrix,
)
from conftest import field_at, random_cr

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# midpoint of the edge opposite each vertex
REF_MIDPOINTS = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])


def values_on(coords, pts):
    """CR basis values of raw triangle(s) ``coords`` (..., 3, 2) at ``pts`` (..., npts, 2)."""
    coords = np.asarray(coords, dtype=float)
    grads, _ = cr_gradients(coords)
    return cr_values(coords[..., 0, :], grads, np.asarray(pts, dtype=float))


class TestDofLayout:
    def test_reported_counts_follow_refinement(self, domain):
        # 2 x (#edges - #Dirichlet edges) per level
        expected = [28, 104, 400, 1568, 6208]
        mesh = generate_structured(domain, 2)
        for want in expected:
            space = build_space(mesh)
            assert space.n_dofs_reported == want
            mesh = refine_uniform(mesh)

    def test_all_dirichlet_count(self):
        dom = Domain.rectangle(0, 4, 0, 4,
                               left=BoundaryLabel.DIRICHLET, right=BoundaryLabel.DIRICHLET,
                               bottom=BoundaryLabel.DIRICHLET, top=BoundaryLabel.DIRICHLET)
        space = build_space(generate_structured(dom, 2))
        assert space.n_dofs_reported == 2 * (16 - 8)
        assert space.n_dofs_free == 16

    def test_free_count_eliminates_contact_normals(self, space2):
        # 14 unconstrained edges minus one normal component per contact edge
        assert space2.n_dofs_free == 28 - len(space2.contact_edges)
        assert len(space2.contact_edges) == 2

    def test_dirichlet_edges_carry_no_dofs(self, mesh2, space2):
        for e in np.nonzero(mesh2.edge_labels == BoundaryLabel.DIRICHLET)[0]:
            assert space2.dof_x[e] == -1
            assert space2.dof_y[e] == -1

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_edge_order_of_dofs_and_adjacency(self, domain, level):
        mesh = generate_structured(domain, 2)
        for _ in range(level):
            mesh = refine_uniform(mesh)
        space = build_space(mesh)
        # free DOFs run 0..n_free-1 in edge order: two consecutive ones per
        # ordinary edge, one (the tangential) per contact edge
        nxt = 0
        for e, lab in enumerate(mesh.edge_labels):
            dofs = [d for d in (space.dof_x[e], space.dof_y[e]) if d >= 0]
            want = {BoundaryLabel.DIRICHLET: 0, BoundaryLabel.CONTACT: 1}.get(lab, 2)
            assert dofs == list(range(nxt, nxt + want))
            nxt += want
        assert nxt == space.n_dofs_free
        # adjacent triangles are listed in (local edge, triangle) order
        seen = [[] for _ in range(mesh.n_edges)]
        for local in range(3):
            for t in range(mesh.n_triangles):
                seen[mesh.tri_edges[t, local]].append(t)
        want = np.array([s + [-1] * (2 - len(s)) for s in seen])
        assert np.array_equal(mesh.edge_tris, want)

    @pytest.mark.parametrize("contact_side", ["bottom", "left"])
    def test_edge_dofs_layout(self, contact_side):
        sides = dict(left=BoundaryLabel.NEUMANN, right=BoundaryLabel.DIRICHLET,
                     bottom=BoundaryLabel.NEUMANN, top=BoundaryLabel.NEUMANN)
        sides[contact_side] = BoundaryLabel.CONTACT
        mesh = refine_uniform(generate_structured(Domain.rectangle(0, 4, 0, 4, **sides), 2))
        space = build_space(mesh)
        dofs, labels = space.edge_dofs, mesh.edge_labels
        dirichlet, contact = labels == BoundaryLabel.DIRICHLET, labels == BoundaryLabel.CONTACT
        assert dofs.shape == (mesh.n_edges, 2) and np.any(dirichlet) and np.any(contact)
        assert np.all(dofs[dirichlet] == -1)
        # a horizontal contact edge keeps only x, a vertical one only y
        tangent = 0 if contact_side == "bottom" else 1
        assert np.all(dofs[contact, tangent] >= 0) and np.all(dofs[contact, 1 - tangent] == -1)
        other = ~(dirichlet | contact)
        assert np.all(dofs[other, 0] >= 0) and np.all(dofs[other, 1] == dofs[other, 0] + 1)
        assert np.array_equal(np.stack([space.dof_x, space.dof_y], axis=1), dofs)
        assert np.array_equal(space.local_dofs, dofs[mesh.tri_edges])
        for arr in (space.edge_dofs, space.dof_x, space.dof_y, space.local_dofs):
            assert not arr.flags.writeable

    def test_contact_edges_keep_only_tangential(self, mesh2, space2):
        # the bottom side runs along x: x is tangential, y the constrained normal
        e = space2.contact_edges
        assert np.all(space2.dof_x[e] >= 0)
        assert np.all(space2.dof_y[e] == -1)
        assert np.array_equal(space2.contact_tangent_dof, space2.dof_x[e])


class TestLocalBasis:
    def test_defining_property_on_reference_triangle(self):
        vals = values_on(REF, REF_MIDPOINTS)
        assert np.allclose(vals, np.eye(3), atol=1e-14)

    def test_defining_property_on_random_triangles(self):
        # values come from the gradients, so this also checks cr_gradients
        rng = np.random.default_rng(5)
        coords = rng.uniform(-2.0, 2.0, size=(400, 3, 2))
        d1, d2 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        coords = coords[signed > 0.2]  # counterclockwise, away from slivers
        mids = 0.5 * (coords[:, [1, 2, 0]] + coords[:, [2, 0, 1]])
        vals = values_on(coords, mids)
        assert len(coords) > 100
        assert np.allclose(vals, np.eye(3), rtol=0, atol=1e-13)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        bary = rng.dirichlet(np.ones(3), size=20)
        pts = bary @ REF
        vals = values_on(REF, pts)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    def test_gradients_match_finite_differences(self):
        coords = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])
        grads, area = cr_gradients(coords)
        d1 = coords[1] - coords[0]
        d2 = coords[2] - coords[0]
        assert area == pytest.approx(0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0]), rel=1e-14)
        p0 = coords.mean(axis=0)
        h = 1e-6
        for j in range(3):
            fx = (values_on(coords, [p0 + [h, 0]])[0, j]
                  - values_on(coords, [p0 - [h, 0]])[0, j]) / (2 * h)
            fy = (values_on(coords, [p0 + [0, h]])[0, j]
                  - values_on(coords, [p0 - [0, h]])[0, j]) / (2 * h)
            assert grads[j, 0] == pytest.approx(fx, abs=1e-7)
            assert grads[j, 1] == pytest.approx(fy, abs=1e-7)

    def test_rejects_degenerate_triangle(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="triangle is degenerate or clockwise"):
            cr_gradients(flat)
        # a stack is rejected when any one of its triangles is clockwise
        batch = np.array([REF, REF[[0, 2, 1]], REF + 1.0])
        with pytest.raises(ValueError, match="triangle is degenerate or clockwise"):
            cr_gradients(batch)
        with pytest.raises(ValueError, match="triangle is degenerate or clockwise"):
            values_on(batch, REF_MIDPOINTS)

    def test_basis_values_on_an_index_stack(self, space4, mesh4):
        # a (k, 2) stack of triangle indices, some repeated, reads the space's
        # stored gradients and must equal the raw-coordinate evaluation exactly
        tris = np.array([[0, 0], [5, 3], [3, 5], [mesh4.n_triangles - 1, 0], [7, 7]])
        bary = np.random.default_rng(12).dirichlet(np.ones(3), size=tris.shape + (4,))
        coords = mesh4.vertices[mesh4.triangles[tris]]  # (k, 2, 3, 2)
        pts = bary @ coords  # (k, 2, 4, 2)
        got = space4.basis_values(tris, pts)
        assert got.shape == tris.shape + (4, 3)
        assert np.all(got == values_on(coords, pts))


class TestBasisData:
    def test_gradients_computed_once_per_space(self, monkeypatch, config, mesh2, refined2):
        # count every cr_gradients call, under whichever module binds the name
        calls = []
        original = cr_gradients

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for info in pkgutil.iter_modules(crcontact.__path__):
            module = importlib.import_module(f"crcontact.{info.name}")
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        coarse, fine = build_space(mesh2), build_space(refined2)
        assert len(calls) == 2
        # one level's stiffness, march, norm and prolongation reuse them
        system = assemble_stiffness(fine, config.material, config.rho)
        march(system, config.loads, TimeGrid(config.T, 2), config.uzawa)
        EnergyNormEvaluator(fine, config.material, config.rho)
        prolongation_matrix(coarse, fine)
        assert len(calls) == 2


class TestInterpolation:
    def test_zero_field(self, space2):
        fn = interpolate_cr(lambda x, y: (0.0, 0.0), space2)
        assert np.all(fn.coeffs == 0.0)

    def test_matches_per_edge_loop(self, space4, mesh4):
        def v(x, y):
            return (np.sin(x) * y, np.exp(-x * y))

        want = np.zeros(space4.n_dofs_free)
        for e in range(mesh4.n_edges):
            pts = space4.edge_gauss_points(e)
            mean = 0.5 * (np.asarray(v(*pts[0])) + np.asarray(v(*pts[1])))
            for comp, dof in enumerate((space4.dof_x[e], space4.dof_y[e])):
                if dof >= 0:
                    want[dof] = mean[comp]
        assert np.array_equal(interpolate_cr(v, space4).coeffs, want)

    def test_linear_reproduction_inside_elements(self, space4, mesh4):
        def v(x, y):
            return (1.0 + 2.0 * x - y, 0.5 * x + 3.0 * y)

        fn = interpolate_cr(v, space4)
        rng = np.random.default_rng(0)
        bary = rng.dirichlet(np.ones(3), size=(mesh4.n_triangles, 4))
        pts = bary @ mesh4.vertices[mesh4.triangles]
        got = field_at(fn, pts)
        want = np.stack(v(pts[..., 0], pts[..., 1]), axis=-1)
        # skip triangles touching constrained edges: the field does not
        # satisfy the boundary conditions, so constrained DOFs are dropped
        free = np.all(space4.local_dofs >= 0, axis=(1, 2))
        assert np.count_nonzero(free) > 0
        assert np.allclose(got[free], want[free], atol=1e-12)

    def test_quadratic_edge_means(self, space2, mesh2):
        fn = interpolate_cr(lambda x, y: (x * x, 0.0), space2)
        for e in range(mesh2.n_edges):
            d = space2.dof_x[e]
            if d < 0:
                continue
            xa, xb = mesh2.vertices[mesh2.edges[e], 0]
            exact_mean = (xa * xa + xa * xb + xb * xb) / 3.0
            assert fn.coeffs[d] == pytest.approx(exact_mean, rel=1e-13, abs=1e-14)

    def test_commutes_with_time_differencing(self, space4):
        def v0(x, y):
            return (np.sin(x), x - y)

        def v1(x, y):
            return (x * y, np.cos(y))

        def at(t):
            return lambda x, y: np.asarray(v0(x, y)) + t * np.asarray(v1(x, y))

        t1, t2 = 0.3, 0.9
        diff = (interpolate_cr(at(t2), space4).coeffs
                - interpolate_cr(at(t1), space4).coeffs) / (t2 - t1)
        direct = interpolate_cr(v1, space4).coeffs
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(diff - direct)) <= 1e-12 * scale

    def test_jump_mean_zero_on_interior_edges(self, space4, mesh4):
        rng = np.random.default_rng(5)
        fn = random_cr(space4, rng)
        scale = np.max(np.abs(fn.coeffs))
        # each triangle's trace at the Gauss points of its three edges
        pts = space4.edge_gauss_points(mesh4.tri_edges).reshape(-1, 6, 2)
        means = field_at(fn, pts).reshape(-1, 3, 2, 2).mean(axis=2)  # (nt, local edge, comp)
        for e in range(mesh4.n_edges):
            t0, t1 = mesh4.edge_tris[e]
            if t1 < 0:
                continue
            m0 = means[t0, list(mesh4.tri_edges[t0]).index(e)]
            m1 = means[t1, list(mesh4.tri_edges[t1]).index(e)]
            assert np.max(np.abs(m0 - m1)) <= 1e-10 * scale

    def test_interpolation_error_order(self, domain):
        def v(x, y):
            return (np.sin(np.pi * x / 4.0) * np.sin(np.pi * y / 4.0), 0.0)

        def grad_v(x, y):
            c = np.pi / 4.0
            return np.array([
                [c * np.cos(c * x) * np.sin(c * y), c * np.sin(c * x) * np.cos(c * y)],
                [0.0, 0.0],
            ])

        errors = []
        # start at n=4: the 2x2 grid is preasymptotic for this field
        mesh = generate_structured(domain, 4)
        for _ in range(4):
            space = build_space(mesh)
            errors.append(broken_h1_seminorm_error(interpolate_cr(v, space), grad_v))
            mesh = refine_uniform(mesh)
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 0.95)


class TestProlongation:
    def test_zero(self, space2, refined2):
        fine_space = build_space(refined2)
        out = prolongate(CRFunction.zero(space2), fine_space)
        assert np.all(out.coeffs == 0.0)

    def test_linear_reproduction(self, space2, refined2):
        # zero trace on the clamped side and zero contact-normal component,
        # so the interpolant represents the field exactly on both levels
        def v(x, y):
            return (x - 4.0, 0.0)

        fine_space = build_space(refined2)
        coarse = interpolate_cr(v, space2)
        got = prolongate(coarse, fine_space)
        want = interpolate_cr(v, fine_space)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13

    def test_center_children_inherit_gradient(self, space2, refined2):
        rng = np.random.default_rng(11)
        fine_space = build_space(refined2)
        coarse = random_cr(space2, rng)
        fine = prolongate(coarse, fine_space)
        # the middle child of each parent has all edges strictly inside the
        # parent triangle, so its midpoint values come from one coarse plane
        center = 4 * np.arange(space2.mesh.n_triangles) + 3
        free = np.all(fine_space.local_dofs[center] >= 0, axis=(1, 2))
        assert np.count_nonzero(free) > 0
        assert np.allclose(fine.gradients()[center[free]], coarse.gradients()[free], atol=1e-12)

    def test_broken_h1_preserved_for_conforming_linears(self, space2, refined2):
        def v(x, y):
            return (0.3 * (x - 4.0), 0.0)

        # globally linear with zero Dirichlet trace and zero contact normal:
        # all constraints are consistent, gradients are inherited exactly
        fine_space = build_space(refined2)
        coarse = interpolate_cr(v, space2)
        fine = prolongate(coarse, fine_space)

        def zero(x, y):
            return np.zeros((2, 2))

        assert broken_h1_seminorm_error(fine, zero) == pytest.approx(
            broken_h1_seminorm_error(coarse, zero), rel=1e-12)

    def test_rejects_non_nested(self, space2, space4):
        with pytest.raises(ValueError):
            prolongation_matrix(space2, space4)

    def test_matrix_cached(self, space2, refined2):
        fine_space = build_space(refined2)
        P1 = prolongation_matrix(space2, fine_space)
        P2 = prolongation_matrix(space2, fine_space)
        assert P1 is P2


class TestCRFunction:
    def test_shape_validation(self, space2):
        with pytest.raises(ValueError):
            CRFunction(space2, np.zeros(space2.n_dofs_free + 1))

    def test_arithmetic(self, space2):
        rng = np.random.default_rng(2)
        a, b = random_cr(space2, rng), random_cr(space2, rng)
        assert np.array_equal((a - b).coeffs, a.coeffs - b.coeffs)

    def test_cross_space_arithmetic_rejected(self, space2, space4):
        with pytest.raises(ValueError, match="different CR spaces"):
            CRFunction.zero(space2) - CRFunction.zero(space4)

    def test_batched_forms_match_per_triangle_loop(self, space4, mesh4):
        fn = random_cr(space4, np.random.default_rng(8))
        padded = np.append(fn.coeffs, 0.0)
        bary = np.random.default_rng(9).dirichlet(np.ones(3), size=(mesh4.n_triangles, 2))
        pts = bary @ mesh4.vertices[mesh4.triangles]
        values, gradients = field_at(fn, pts), fn.gradients()
        tol = 1e-13 * np.max(np.abs(fn.coeffs))
        for t in range(mesh4.n_triangles):
            coords = mesh4.vertices[mesh4.triangles[t]]
            local = padded[space4.local_dofs[t]]  # (3 local edges, 2 components)
            grads, _ = cr_gradients(coords)
            assert np.allclose(values[t], values_on(coords, pts[t]) @ local, rtol=0, atol=tol)
            assert np.allclose(gradients[t], local.T @ grads, rtol=0, atol=tol)

    def test_constrained_components_are_zero(self, space2, mesh2):
        rng = np.random.default_rng(4)
        fn = random_cr(space2, rng)
        # the field at the midpoints of each triangle's edges
        vals = field_at(fn, mesh2.midpoints[mesh2.tri_edges])
        tol = 1e-14 * np.max(np.abs(fn.coeffs))
        labels = mesh2.edge_labels[mesh2.tri_edges]
        assert np.all(np.abs(vals[labels == BoundaryLabel.DIRICHLET]) <= tol)
        # normal component on the bottom
        assert np.all(np.abs(vals[labels == BoundaryLabel.CONTACT, 1]) <= tol)
        assert np.any(labels == BoundaryLabel.DIRICHLET) and np.any(labels == BoundaryLabel.CONTACT)
