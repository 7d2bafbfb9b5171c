"""Energy norms, inter-mesh errors and the oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from crcontact.analysis import (
    _DUNAVANT4_BARY,
    _DUNAVANT4_W,
    EnergyNormEvaluator,
    brute_force_vi_oracle,
    broken_h1_seminorm_error,
    energy_norm,
    inter_mesh_error,
    minimize_tresca_quadratic,
)
from crcontact.assembly import DiscreteSystem
from crcontact.mesh import (
    BoundaryLabel,
    BoundarySegment,
    Domain,
    generate_structured,
)
from crcontact.solver import SPDFactor, _contact_response, uzawa_iterate
from crcontact.space import CRFunction, build_space, interpolate_cr, prolongate
from conftest import random_cr


class TestEnergyNorm:
    def test_zero_function(self, space2, material, config):
        b = energy_norm(CRFunction.zero(space2), material, config.rho)
        assert b.elem_part == 0.0
        assert b.jump_part == 0.0
        assert b.total == 0.0

    def test_homogeneity(self, space2, material, config):
        rng = np.random.default_rng(0)
        v = random_cr(space2, rng)
        base = energy_norm(v, material, config.rho).total
        for alpha in (-2.0, 0.25, 7.5):
            scaled = energy_norm(CRFunction(space2, alpha * v.coeffs), material, config.rho).total
            assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12)

    def test_triangle_inequality(self, space4, material, config):
        rng = np.random.default_rng(3)
        ev = EnergyNormEvaluator(space4, material, config.rho)
        for _ in range(20):
            v, w = random_cr(space4, rng), random_cr(space4, rng)
            assert ev(CRFunction(space4, v.coeffs + w.coeffs)) <= ev(v) + ev(w) + 1e-12

    def test_conforming_linear_has_no_jumps(self):
        # mesh without Dirichlet edges: the stabilization set is interior
        # only, and a globally linear field has zero jumps there
        segs = (
            BoundarySegment("right", 0.0, 0.5, BoundaryLabel.DIRICHLET),
            BoundarySegment("right", 0.5, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("left", 0.0, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("top", 0.0, 4.0, BoundaryLabel.NEUMANN),
            BoundarySegment("bottom", 0.0, 4.0, BoundaryLabel.NEUMANN),
        )
        dom = Domain(0.0, 4.0, 0.0, 4.0, segs)
        space = build_space(generate_structured(dom, 2))
        from crcontact.material import MaterialModel
        mat = MaterialModel.from_engineering(200.0, 0.3)
        v = interpolate_cr(lambda x, y: (1.0 + 2.0 * x - y, 0.5 * x + 3.0 * y), space)
        b = energy_norm(v, mat, 10.0)
        assert b.elem_part > 0
        assert b.jump_part <= 1e-20 * b.elem_part

    def test_matches_quadratic_form(self, space2, system2, material, config):
        rng = np.random.default_rng(21)
        v = random_cr(space2, rng)
        quad = float(v.coeffs @ (system2.K @ v.coeffs))
        b = energy_norm(v, material, config.rho)
        assert quad == pytest.approx(b.elem_part + b.jump_part, rel=1e-10)

    def test_rejects_nonpositive_rho(self, space2, material):
        with pytest.raises(ValueError):
            EnergyNormEvaluator(space2, material, 0.0)


class TestInterMeshError:
    def test_exact_prolongation_gives_zero(self, space2, refined2, material, config):
        rng = np.random.default_rng(5)
        fine_space = build_space(refined2)
        coarse = random_cr(space2, rng)
        fine = prolongate(coarse, fine_space)
        assert inter_mesh_error(coarse, fine, material, config.rho) <= 1e-14

    def test_joint_sign_symmetry(self, space2, refined2, material, config):
        rng = np.random.default_rng(6)
        fine_space = build_space(refined2)
        uc, uf = random_cr(space2, rng), random_cr(fine_space, rng)
        e1 = inter_mesh_error(uc, uf, material, config.rho)
        e2 = inter_mesh_error(CRFunction(space2, -uc.coeffs), CRFunction(fine_space, -uf.coeffs),
                              material, config.rho)
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_rejects_non_nested(self, space2, space4, material, config):
        with pytest.raises(ValueError):
            inter_mesh_error(CRFunction.zero(space2), CRFunction.zero(space4),
                             material, config.rho)


class TestOracle:
    def test_zero_load(self, system2, space2, config):
        u = brute_force_vi_oracle(system2, np.zeros(space2.n_dofs_free),
                                  CRFunction.zero(space2), config.loads.g_a)
        assert np.max(np.abs(u.coeffs)) <= 1e-12

    def test_frictionless_matches_direct_solve(self, system2, space2, config):
        from crcontact.assembly import assemble_load
        load = assemble_load(space2, config.loads, 1.0)
        u = brute_force_vi_oracle(system2, load, CRFunction.zero(space2), g_a=0.0)
        direct = SPDFactor(system2.K).solve(load)
        assert np.max(np.abs(u.coeffs - direct)) <= 1e-9

    def test_rejects_large_systems(self, system2, space2, config):
        big = sp.eye(5000, format="csr")
        fake = DiscreteSystem(space2, big)
        with pytest.raises(ValueError):
            brute_force_vi_oracle(fake, np.zeros(5000), CRFunction.zero(space2), 0.001)

    def test_agrees_with_uzawa_on_random_systems(self):
        """Uzawa and the proximal-gradient oracle on synthetic systems."""
        rng = np.random.default_rng(42)
        for trial in range(10):
            n, m = 16, 4
            A = rng.standard_normal((n, n))
            K = sp.csr_matrix(A @ A.T + n * np.eye(n))
            F = rng.standard_normal(n)
            idx = rng.choice(n, size=m, replace=False)
            g_a = rng.uniform(0.0, 0.01)
            w = rng.uniform(0.5, 2.0, m)
            prev = 0.01 * rng.standard_normal(m)

            u_ref = minimize_tresca_quadratic(K, F, idx, g_a * w, prev, tol=1e-12)
            if g_a > 1e-14:
                Kinv = np.linalg.inv(K.toarray())
                M = Kinv[np.ix_(idx, idx)] * (g_a * w)[None, :]
                s = np.sqrt(g_a * w)
                eigs = np.linalg.eigvalsh(0.5 * (M * s[None, :] / s[:, None]
                                                 + (M * s[None, :] / s[:, None]).T))
                step = 2.0 / (eigs[0] + eigs[-1])
            else:
                step = 1.0
            factor = SPDFactor(K)
            Z, _ = _contact_response(factor, idx, g_a * w)
            u, lam, _, _ = uzawa_iterate(factor.solve(F), Z, np.asfortranarray(Z[idx]),
                                         idx, prev, np.zeros(m), step, 1e-12, 100000)
            diff = u - u_ref.ravel() if hasattr(u_ref, "ravel") else u - u_ref
            err = float(np.sqrt(diff @ (K @ diff)))
            scale = float(np.sqrt(u_ref @ (K @ u_ref)))
            assert err <= 1e-6 * max(scale, 1.0), f"trial {trial}: {err:.2e}"
            assert np.max(np.abs(lam)) <= 1.0


class TestBrokenH1:
    def test_linear_field_exact(self, space2):
        v = interpolate_cr(lambda x, y: (x - 4.0, 0.0), space2)

        def grad(x, y):
            return np.array([[1.0, 0.0], [0.0, 0.0]])

        assert broken_h1_seminorm_error(v, grad) <= 1e-12
        # against a zero gradient: the seminorm |grad| * sqrt(area)
        assert broken_h1_seminorm_error(v, lambda x, y: np.zeros((2, 2))) == pytest.approx(
            4.0, rel=1e-12)

    def test_matches_per_triangle_loop(self, space4):
        # the per-triangle, per-point sum the batched form replaced; the
        # summation order differs, so equality holds to round-off
        fn = random_cr(space4, np.random.default_rng(3))
        mesh = space4.mesh

        def grad(x, y):
            return np.array([[np.sin(x), x * y], [np.cos(y), x - y]])

        gh = fn.gradients()
        total = 0.0
        for t in range(mesh.n_triangles):
            pts = _DUNAVANT4_BARY @ mesh.vertices[mesh.triangles[t]]
            for (x, y), w in zip(pts, _DUNAVANT4_W):
                total += w * mesh.areas[t] * np.sum((grad(x, y) - gh[t]) ** 2)
        assert broken_h1_seminorm_error(fn, grad) == pytest.approx(np.sqrt(total), rel=1e-13)
