"""Energy norms, inter-mesh errors and the oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from crcontact.analysis import EnergyNormEvaluator, energy_norm, inter_mesh_error
from crcontact.assembly import DiscreteSystem
from crcontact.mesh import (
    BoundaryLabel,
    BoundarySegment,
    Domain,
    generate_structured,
)
from crcontact.solver import SPDFactor, uzawa_iterate
from crcontact.space import CRFunction, build_space, interpolate_cr, prolongate
from conftest import contact_setup, random_cr, random_tresca_problems
from oracles import (
    _DUNAVANT4_BARY,
    _DUNAVANT4_W,
    broken_h1_seminorm_error,
    brute_force_vi_oracle,
    gradients,
    minimize_tresca_quadratic,
)


class TestEnergyNorm:
    def test_zero_function(self, space2, material, config):
        v = CRFunction.zero(space2)
        elem, jump = EnergyNormEvaluator(space2, material, config.rho).breakdown(v)
        assert elem == 0.0
        assert jump == 0.0
        assert energy_norm(v, material, config.rho) == 0.0

    def test_homogeneity(self, space2, material, config):
        rng = np.random.default_rng(0)
        v = random_cr(space2, rng)
        base = energy_norm(v, material, config.rho)
        for alpha in (-2.0, 0.25, 7.5):
            scaled = energy_norm(CRFunction(space2, alpha * v.coeffs), material, config.rho)
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
        elem, jump = EnergyNormEvaluator(space, mat, 10.0).breakdown(v)
        assert elem > 0
        assert jump <= 1e-20 * elem

    def test_matches_quadratic_form(self, space2, system2, material, config):
        rng = np.random.default_rng(21)
        v = random_cr(space2, rng)
        quad = float(v.coeffs @ (system2.K @ v.coeffs))
        elem, jump = EnergyNormEvaluator(space2, material, config.rho).breakdown(v)
        assert quad == pytest.approx(elem + jump, rel=1e-10)

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

    def test_proximal_gradient_reports_non_convergence(self):
        K, F, idx, weights, prev = next(random_tresca_problems())
        with pytest.raises(RuntimeError, match="proximal gradient did not reach stationarity "
                                               "1e-12 within 1 iterations"):
            minimize_tresca_quadratic(K, F, idx, weights, prev, tol=1e-12, max_iter=1)

    def test_agrees_with_uzawa_on_random_systems(self):
        """Uzawa and the proximal-gradient oracle on synthetic systems."""
        for trial, (K, F, idx, weights, prev) in enumerate(random_tresca_problems()):
            u_ref = minimize_tresca_quadratic(K, F, idx, weights, prev, tol=1e-12)
            factor = SPDFactor(K)
            Z, M, step = contact_setup(factor, idx, weights)
            u = factor.solve(F)
            _, lam, _, _ = uzawa_iterate(u[idx], Z, M, prev, np.zeros(len(idx)),
                                         step, 1e-12, 100000)
            diff = u - Z @ lam - u_ref
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

        gh = gradients(fn)
        total = 0.0
        for t in range(mesh.n_triangles):
            pts = _DUNAVANT4_BARY @ mesh.vertices[mesh.triangles[t]]
            for (x, y), w in zip(pts, _DUNAVANT4_W):
                total += w * mesh.areas[t] * np.sum((grad(x, y) - gh[t]) ** 2)
        assert broken_h1_seminorm_error(fn, grad) == pytest.approx(np.sqrt(total), rel=1e-13)
