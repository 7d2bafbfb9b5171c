"""Isotropic linear elasticity: Lame parameters and the elasticity matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MaterialError(ValueError):
    """Raised for physically inadmissible material parameters."""


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic material with both engineering and Lame parameters.

    ``plane`` selects the 2D reduction: 'strain' keeps the 3D Lame lambda,
    'stress' replaces it by 2*lam*mu/(lam + 2*mu).
    """

    E: float
    nu: float
    lam: float
    mu: float
    plane: str = "strain"

    @classmethod
    def from_engineering(cls, E: float, nu: float, plane: str = "strain") -> "MaterialModel":
        if plane not in ("strain", "stress"):
            raise MaterialError(f"plane must be 'strain' or 'stress', got {plane!r}")
        if not 0 < E < np.inf:
            raise MaterialError(f"Young's modulus must be positive and finite, got {E}")
        if not 0 <= nu < 0.5:
            raise MaterialError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
        mu = E / (2.0 * (1.0 + nu))  # the 3D Lame parameters
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        if plane == "stress":
            lam = 2.0 * lam * mu / (lam + 2.0 * mu)
        return cls(E=E, nu=nu, lam=lam, mu=mu, plane=plane)

    def dmatrix(self) -> np.ndarray:
        """3x3 constitutive matrix in Voigt form (engineering shear)."""
        lam, mu = self.lam, self.mu
        return np.array([
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, mu],
        ])

