"""Stiffness, load and friction assembly against independent oracles."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from crcontact.analysis import EnergyNormEvaluator
from crcontact.assembly import (
    LoadSpec,
    assemble_load,
    assemble_stiffness,
    element_stiffness,
    friction_rhs,
    friction_value,
)
from crcontact.material import MaterialModel
from crcontact.mesh import BoundaryLabel, generate_structured, refine_uniform
from crcontact.space import CRFunction, build_space, cr_gradients, interpolate_cr
from conftest import random_cr

UNIT_MAT = MaterialModel(E=1.0, nu=0.0, lam=1.0, mu=1.0)


def _oracle_element_matrix(coords, mat):
    """Independent 6x6 element matrix via fitted shape-function planes.

    Each scalar CR shape function is the plane taking value 1 at its own
    edge midpoint and 0 at the others; gradients come from solving the
    3x3 Vandermonde system, strains and stresses from first principles.
    """
    coords = np.asarray(coords, dtype=float)
    mids = 0.5 * (coords[[1, 2, 0]] + coords[[2, 0, 1]])  # midpoint opposite vertex j
    vander = np.column_stack([np.ones(3), mids])
    grads = np.linalg.solve(vander, np.eye(3))[1:, :].T  # (3 funcs, 2)
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])

    def strain_of(dof):
        j, c = divmod(dof, 2)
        g = np.zeros((2, 2))
        g[c, :] = grads[j]
        return 0.5 * (g + g.T)

    K = np.zeros((6, 6))
    for a in range(6):
        ea = strain_of(a)
        sa = mat.lam * np.trace(ea) * np.eye(2) + 2.0 * mat.mu * ea
        for b in range(6):
            K[a, b] = area * np.sum(sa * strain_of(b))
    return K


class TestElementStiffness:
    def test_reference_triangle_against_oracle(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = element_stiffness(*cr_gradients(coords), UNIT_MAT)
        want = _oracle_element_matrix(coords, UNIT_MAT)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_random_triangles_against_oracle(self):
        rng = np.random.default_rng(8)
        mat = MaterialModel.from_engineering(200.0, 0.3)
        batch = []
        for _ in range(5):
            coords = rng.uniform(-1, 1, size=(3, 2))
            d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
            if d1[0] * d2[1] - d1[1] * d2[0] < 0.1:
                coords[[1, 2]] = coords[[2, 1]]
            if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 0.1:
                continue
            got = element_stiffness(*cr_gradients(coords), mat)
            want = _oracle_element_matrix(coords, mat)
            assert np.allclose(got, want, rtol=1e-11, atol=1e-10)
            batch.append(coords)
        assert len(batch) >= 2
        # one call on the stacked triangles gives every element matrix
        stacked = element_stiffness(*cr_gradients(np.array(batch)), mat)
        assert stacked.shape == (len(batch), 6, 6)
        for coords, got in zip(batch, stacked):
            assert np.allclose(got, _oracle_element_matrix(coords, mat),
                               rtol=1e-11, atol=1e-10)


class TestStiffness:
    def test_rejects_nonpositive_rho(self, space2, material):
        with pytest.raises(ValueError, match="stabilization parameter must be positive, got 0.0"):
            assemble_stiffness(space2, material, 0.0)

    def test_symmetry(self, system2):
        K = system2.K
        diff = abs(K - K.T).max()
        assert diff <= 1e-12 * abs(K).max()

    def test_positive_definite(self, system2):
        smallest = spla.eigsh(system2.K.tocsc().astype(float), k=1, sigma=0,
                              return_eigenvectors=False)[0]
        assert smallest > 0

    def test_penalty_linear_in_rho(self, space2, material):
        K1 = assemble_stiffness(space2, material, 1.0).K
        K2 = assemble_stiffness(space2, material, 2.0).K
        K3 = assemble_stiffness(space2, material, 3.0).K
        # the element part cancels in differences; the penalty is linear in rho
        assert abs((K3 - K2) - (K2 - K1)).max() <= 1e-12 * abs(K1).max()
        assert abs((K3 - K1) - 2 * (K2 - K1)).max() <= 1e-12 * abs(K1).max()

    def test_translation_in_element_term_kernel(self, space2, mesh2, system2):
        # x-translation on the free DOFs (zero Dirichlet data): rigid motions
        # are strain-free and jump-free, so K v vanishes on every row whose
        # support stays away from the Dirichlet edges
        v = np.zeros(space2.n_dofs_free)
        v[space2.dof_x[space2.dof_x >= 0]] = 1.0
        Kv = system2.K @ v
        assert np.any(Kv != 0.0)

        # the field only deviates from a translation on Dirichlet-adjacent
        # triangles; their CR jumps also touch the rows of neighbors, so the
        # clean rows are those two triangle-rings away from the clamped side
        dirichlet_tris = set()
        for e in np.nonzero(mesh2.edge_labels == BoundaryLabel.DIRICHLET)[0]:
            dirichlet_tris.add(int(mesh2.edge_tris[e, 0]))

        def touches_corrupted(t):
            if t in dirichlet_tris:
                return True
            for f in mesh2.tri_edges[t]:
                for s in mesh2.edge_tris[f]:
                    if s >= 0 and s in dirichlet_tris:
                        return True
            return False

        scale = abs(system2.K).max()
        checked = 0
        for e in range(mesh2.n_edges):
            tris = [t for t in mesh2.edge_tris[e] if t >= 0]
            if any(touches_corrupted(t) for t in tris):
                continue
            for d in (space2.dof_x[e], space2.dof_y[e]):
                if d >= 0:
                    assert abs(Kv[d]) <= 1e-13 * scale
                    checked += 1
        assert checked > 0

    def test_norm_consistency_random_fields(self, space2, system2, material, config):
        evaluator = EnergyNormEvaluator(space2, material, config.rho)
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = random_cr(space2, rng)
            quad = float(v.coeffs @ (system2.K @ v.coeffs))
            norm2 = evaluator.breakdown(v)
            total2 = norm2.elem_part + norm2.jump_part
            assert quad == pytest.approx(total2, rel=1e-10)


class TestLoadSpec:
    def test_rejects_negative_friction_bound(self):
        with pytest.raises(ValueError,
                           match="friction bound must be nonnegative and finite, got -1.0"):
            LoadSpec(g_a=-1.0)

    @pytest.mark.parametrize("g_a", [np.nan, np.inf])
    def test_rejects_non_finite_friction_bound(self, g_a):
        with pytest.raises(ValueError, match="friction bound must be nonnegative and finite"):
            LoadSpec(g_a=g_a)

    @pytest.mark.parametrize("change", [
        dict(f=(0.0,)), dict(f=(0.0, 0.0, 0.0)),
        dict(g_coeffs=((0.0, 0.0), (0.0, 0.0, 0.0))),
        dict(g_coeffs=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))),
        dict(g_coeffs=((0.0, 0.0, 0.0),)),
    ], ids=["f-short", "f-long", "gx-short", "gy-long", "one-row"])
    def test_rejects_wrong_row_length(self, change):
        # a wrong length would otherwise broadcast, or fail only in assembly
        with pytest.raises(ValueError, match=r"f needs 2 entries, gx and gy need 3 \(c0 cx cy\)"):
            LoadSpec(**change)

    def test_rejects_unknown_time_factor(self):
        with pytest.raises(ValueError,
                           match="time factor must be 'const' or 'linear', got 'quadratic'"):
            LoadSpec(g_time="quadratic")

    def test_rejects_unknown_traction_side(self):
        # a misspelled side would otherwise select no edge and drop the traction
        with pytest.raises(ValueError, match=r"unknown traction side\(s\) \['leftt'\], expected"):
            LoadSpec(g_sides=("leftt",))

    def test_rejects_empty_traction_sides(self):
        # no side named would select no edge and drop the traction
        with pytest.raises(ValueError, match="no traction side named; leave g_sides unset"):
            LoadSpec(g_sides=())

    def test_affine_traction_evaluation(self):
        loads = LoadSpec(g_coeffs=((1.0, 2.0, -1.0), (0.5, 0.0, 3.0)), g_time="linear")
        pts = np.array([[1.0, 2.0], [0.0, 0.0]])
        got = loads.g_at(pts, 2.0)
        assert np.allclose(got, [[2.0, 13.0], [2.0, 1.0]])


class TestLoadVector:
    def test_zero_loads(self, space2):
        F = assemble_load(space2, LoadSpec(), 1.0)
        assert np.all(F == 0.0)

    def test_linear_time_scaling(self, space2, config):
        # ramped traction: the load vector is proportional to t
        F1 = assemble_load(space2, config.loads, 1.0)
        Fh = assemble_load(space2, config.loads, 0.5)
        assert np.allclose(Fh, 0.5 * F1, rtol=1e-14)
        assert np.any(F1 != 0.0)

    def test_unit_traction_sums_to_side_length(self, space4):
        # g = (1, 0) on the left side: partition of unity of the CR traces
        # makes the x-entries sum to the side length
        loads = LoadSpec(g_coeffs=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                         g_sides=("left",))
        F = assemble_load(space4, loads, 1.0)
        assert F.sum() == pytest.approx(4.0, rel=1e-13)

    def test_traction_against_independent_quadrature(self, space4, mesh4, config):
        F = assemble_load(space4, config.loads, 0.7)
        want = np.zeros_like(F)
        for e in range(mesh4.n_edges):
            if (mesh4.edge_labels[e] != BoundaryLabel.NEUMANN
                    or mesh4.boundary_side(e) != "left"):
                continue
            a, b = mesh4.vertices[mesh4.edges[e]]
            h = np.linalg.norm(b - a)
            tri = mesh4.edge_tris[e, 0]
            # 4-point Gauss-Legendre, higher order than assembly's rule
            xg, wg = np.polynomial.legendre.leggauss(4)
            for s, w in zip(xg, wg):
                pt = 0.5 * (a + b) + 0.5 * s * (b - a)
                g = config.loads.g_at(pt[None, :], 0.7)[0]
                traces = space4.basis_values(tri, pt[None, :])[0]
                for j in range(3):
                    for c in range(2):
                        d = space4.local_dofs[tri, j, c]
                        if d >= 0:
                            want[d] += 0.5 * h * w * g[c] * traces[j]
        assert np.allclose(F, want, rtol=1e-12, atol=1e-14)

    def test_constant_body_force(self, space2, mesh2):
        loads = LoadSpec(f=(0.0, -2.0))
        F = assemble_load(space2, loads, 1.0)
        # total y-force equals f_y * area, minus what lands on constrained DOFs;
        # check against a direct midpoint-rule loop
        want = np.zeros_like(F)
        for t in range(mesh2.n_triangles):
            for j in range(3):
                d = space2.local_dofs[t, j, 1]
                if d >= 0:
                    want[d] += -2.0 * mesh2.areas[t] / 3.0
        assert np.allclose(F, want, rtol=1e-14)


class TestFriction:
    def test_zero_function(self, space2, config):
        from crcontact.space import CRFunction
        assert friction_value(space2, config.loads.g_a, CRFunction.zero(space2)) == 0.0

    def test_single_edge_arithmetic(self, space2, config):
        # contact edges on the 2x2 grid have length 2
        v = CRFunction.zero(space2)
        coeffs = v.coeffs.copy()
        coeffs[space2.contact_tangent_dof[0]] = 1.0
        v = CRFunction(space2, coeffs)
        assert space2.contact_edge_lengths[0] == 2.0
        assert friction_value(space2, 0.0012, v) == pytest.approx(0.0024, rel=1e-15)

    def test_positive_homogeneity(self, space2):
        rng = np.random.default_rng(1)
        v = random_cr(space2, rng)
        j = friction_value(space2, 0.0012, v)
        for alpha in (-3.0, 0.5, 2.0):
            scaled = CRFunction(space2, alpha * v.coeffs)
            assert friction_value(space2, 0.0012, scaled) == pytest.approx(
                abs(alpha) * j, rel=1e-13)

    def test_convexity(self, space2):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v, w = random_cr(space2, rng), random_cr(space2, rng)
            mid = friction_value(space2, 0.0012, CRFunction(space2, 0.5 * (v.coeffs + w.coeffs)))
            avg = 0.5 * (friction_value(space2, 0.0012, v)
                         + friction_value(space2, 0.0012, w))
            assert mid <= avg + 1e-15

    def test_rhs_zero_multiplier(self, space2):
        out = friction_rhs(space2, 0.0012, np.zeros(len(space2.contact_edges)))
        assert np.all(out == 0.0)

    def test_rhs_unit_multiplier_entry(self, space2):
        lam = np.zeros(len(space2.contact_edges))
        lam[0] = 1.0
        out = friction_rhs(space2, 0.0012, lam)
        d = space2.contact_tangent_dof[0]
        assert out[d] == pytest.approx(0.0024, rel=1e-15)
        assert np.count_nonzero(out) == 1

    def test_rhs_sign_flip(self, space2):
        rng = np.random.default_rng(2)
        lam = rng.uniform(-1, 1, len(space2.contact_edges))
        assert np.array_equal(friction_rhs(space2, 0.0012, -lam),
                              -friction_rhs(space2, 0.0012, lam))

    def test_rhs_rejects_out_of_range(self, space2):
        lam = np.zeros(len(space2.contact_edges))
        lam[0] = 1.5
        with pytest.raises(ValueError, match=r"friction multiplier out of \[-1, 1\]"):
            friction_rhs(space2, 0.0012, lam)

    def test_rhs_rejects_wrong_length(self, space2):
        with pytest.raises(ValueError, match="expected one multiplier per contact edge"):
            friction_rhs(space2, 0.0012, np.zeros(len(space2.contact_edges) + 1))


def _direct_load(space, loads, t):
    """The load vector as a masked ``np.bincount`` over the local DOF map."""
    mesh = space.mesh
    body = np.broadcast_to(loads.f_at(t) * mesh.areas[:, None, None] / 3.0,
                           space.local_dofs.shape)
    neumann = np.nonzero(mesh.edge_labels == BoundaryLabel.NEUMANN)[0]
    if loads.g_sides is not None:
        neumann = neumann[np.isin(mesh.boundary_side(neumann), loads.g_sides)]
    pts = space.edge_gauss_points(neumann)
    tris = mesh.edge_tris[neumann, 0]
    traces = space.basis_values(tris, pts)
    w = 0.5 * mesh.edge_lengths[neumann]
    traction = w[:, None, None] * (traces.swapaxes(1, 2) @ loads.g_at(pts, t))
    dofs = np.concatenate([space.local_dofs, space.local_dofs[tris]]).ravel()
    vals = np.concatenate([body, traction]).ravel()
    keep = dofs >= 0
    return np.bincount(dofs[keep], weights=vals[keep], minlength=space.n_dofs_free)


def _direct_interpolation(v, space):
    """Edge means written into a vector with one trailing slot for the -1 DOFs."""
    dofs = space.edge_dofs
    edges = np.nonzero(np.any(dofs >= 0, axis=1))[0]
    pts = space.edge_gauss_points(edges).reshape(-1, 2)
    vals = np.array([np.asarray(v(x, y), dtype=float) for x, y in pts]).reshape(-1, 2, 2)
    coeffs = np.zeros(space.n_dofs_free + 1)
    coeffs[dofs[edges]] = 0.5 * (vals[:, 0] + vals[:, 1])
    return coeffs[:-1]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_scattered_vectors_equal_direct_formulas(config, level):
    # sparse_from_local sums each DOF's contributions (at most six) in input
    # order, so the free-DOF vectors equal the direct formulas bit for bit
    mesh = generate_structured(config.domain, config.n)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    space = build_space(mesh)
    variants = (config.loads, replace(config.loads, f=(0.1, -0.05), f_time="linear"),
                replace(config.loads, g_sides=None))
    for loads in variants:
        for t in (0.3, 1.0):
            assert np.array_equal(assemble_load(space, loads, t), _direct_load(space, loads, t))

    def v(x, y):
        return (np.sin(x) * y, np.exp(-x * y))

    assert np.array_equal(interpolate_cr(v, space).coeffs, _direct_interpolation(v, space))
    lam = np.random.default_rng(level).uniform(-1.0, 1.0, len(space.contact_edges))
    want = np.zeros(space.n_dofs_free)
    want[space.contact_tangent_dof] = 0.0012 * space.contact_edge_lengths * lam
    assert np.array_equal(friction_rhs(space, 0.0012, lam), want)
