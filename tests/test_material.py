"""Constitutive law: Lame conversion and the Voigt elasticity matrix."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crcontact.material import MaterialModel


class TestLameConversion:
    def test_reference_values(self):
        # E = 200, nu = 0.3: mu = 100/1.3, lam = 60/0.52
        mat = MaterialModel.from_engineering(200.0, 0.3)
        assert mat.mu == pytest.approx(76.923076923076923, rel=1e-14)
        assert mat.lam == pytest.approx(115.38461538461539, rel=1e-14)

    def test_zero_poisson(self):
        mat = MaterialModel.from_engineering(1.0, 0.0)
        assert mat.lam == 0.0
        assert mat.mu == 0.5

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 0.4, 0.49])
    def test_shear_normalization(self, nu):
        # E = 2(1 + nu) makes mu exactly 1
        mat = MaterialModel.from_engineering(2.0 * (1.0 + nu), nu)
        assert mat.mu == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 0.6, -0.1])
    def test_rejects_bad_poisson(self, nu):
        with pytest.raises(ValueError, match=r"Poisson ratio must lie in \[0, 0.5\), got "):
            MaterialModel.from_engineering(200.0, nu)

    @pytest.mark.parametrize("E", [0.0, -5.0, np.nan, np.inf])
    def test_rejects_bad_modulus(self, E):
        with pytest.raises(ValueError, match="Young's modulus must be positive and finite, got "):
            MaterialModel.from_engineering(E, 0.3)

    def test_plane_stress_reduction(self):
        strain_model = MaterialModel.from_engineering(200.0, 0.3, "strain")
        stress_model = MaterialModel.from_engineering(200.0, 0.3, "stress")
        lam, mu = strain_model.lam, strain_model.mu
        assert stress_model.mu == mu
        assert stress_model.lam == pytest.approx(2 * lam * mu / (lam + 2 * mu), rel=1e-14)

    def test_rejects_unknown_plane(self):
        with pytest.raises(ValueError,
                           match="plane must be 'strain' or 'stress', got 'axisymmetric'"):
            MaterialModel.from_engineering(200.0, 0.3, "axisymmetric")


def _tensor_stress(eps, mat):
    """Hooke's law sigma = lam tr(eps) I + 2 mu eps on a symmetric 2x2 strain."""
    return mat.lam * np.trace(eps) * np.eye(2) + 2.0 * mat.mu * eps


def _voigt(eps):
    """(eps_xx, eps_yy, 2 eps_xy): the strain vector dmatrix() acts on."""
    return np.array([eps[0, 0], eps[1, 1], 2.0 * eps[0, 1]])


class TestStress:
    """dmatrix() is the stress map sigma = D (eps_xx, eps_yy, 2 eps_xy)."""

    def test_identity_strain(self):
        mat = MaterialModel(E=1.0, nu=0.0, lam=1.0, mu=1.0)
        assert np.array_equal(mat.dmatrix() @ [1.0, 1.0, 0.0], [4.0, 4.0, 0.0])

    def test_shear_decoupled_from_lambda(self):
        mat = MaterialModel(E=1.0, nu=0.0, lam=7.0, mu=3.0)
        assert np.array_equal(mat.dmatrix() @ [0.0, 0.0, 2.0], [0.0, 0.0, 6.0])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_pointwise_coercivity(self, comps):
        mat = MaterialModel.from_engineering(200.0, 0.3)
        eps = np.array([[comps[0], comps[2]], [comps[2], comps[1]]])
        energy = float(_voigt(eps) @ mat.dmatrix() @ _voigt(eps))
        norm2 = float(np.sum(eps * eps))
        assert energy >= 2.0 * mat.mu * norm2 - 1e-9 * max(1.0, norm2)


class TestDMatrix:
    def test_voigt_contraction_matches_tensor_form(self):
        mat = MaterialModel.from_engineering(200.0, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = rng.standard_normal(3)
            eps = np.array([[a, c], [c, b]])
            sig = _tensor_stress(eps, mat)
            voigt = mat.dmatrix() @ _voigt(eps)
            assert voigt[0] == pytest.approx(sig[0, 0], rel=1e-13)
            assert voigt[1] == pytest.approx(sig[1, 1], rel=1e-13)
            assert voigt[2] == pytest.approx(sig[0, 1], rel=1e-13)
