"""Mesh-dependent energy norms and inter-mesh errors.

The energy norm evaluator reads the element gradients and signed edge
traces that the ``CRSpace`` owns, as the stiffness assembly does, but
applies them to the coefficient vector as sparse gradient and jump
operators and evaluates the strain-energy density with its own formula.
v^T K v and |||v|||^2 are therefore an independent cross-check of the
assembled element and penalty blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from crcontact.material import MaterialModel
from crcontact.space import CRFunction, CRSpace, prolongate, sparse_from_local


@dataclass
class ConvergenceRow:
    """One line of a refinement study table.

    ``h`` is 1/(n 2^level), one over the grid subdivisions per side. It is
    not a length: on a side of length L the squares are L h wide.
    """

    N: int
    h: float
    k: float
    dof: int
    error: Optional[float]
    order: Optional[float]


class EnergyNormEvaluator:
    """Reusable evaluator of |||v|||^2 = |v|_h^2 + |v|_*^2 on a fixed space.

    Precomputes a sparse gradient operator (per-element strain, exact) and a
    sparse jump-trace operator over interior and Dirichlet edges (2-point
    Gauss, exact for CR jumps).
    """

    def __init__(self, space: CRSpace, material: MaterialModel, rho: float):
        if rho <= 0:
            raise ValueError("stabilization parameter must be positive")
        self.space = space
        self.material = material
        self.rho = rho
        nt = space.mesh.n_triangles
        n = space.n_dofs_free

        # row 4t + 2i + j holds d u_i / d x_j on triangle t (axes t, local edge, i, j)
        rows = (4 * np.arange(nt))[:, None, None, None] + 2 * np.arange(2)[:, None] + np.arange(2)
        self._grad_op = sparse_from_local(rows, space.local_dofs[..., None],
                                          space.grads[:, :, None, :], (4 * nt, n))

        # row 4k + 2q + c holds the jump of component c at Gauss point q of
        # the k-th stabilized edge (axes edge, side, q, local edge, c)
        phi, dofs = space.jump_traces()  # (k, 2, 2, 3), (k, 2, 3, 2)
        k = len(phi)
        rows = ((4 * np.arange(k))[:, None, None, None, None]
                + 2 * np.arange(2)[:, None, None] + np.arange(2))
        self._jump_op = sparse_from_local(rows, dofs[:, :, None], phi[..., None], (4 * k, n))

    def breakdown(self, v: CRFunction) -> tuple[float, float]:
        """The squared element and jump parts (|v|_h^2, |v|_*^2) of |||v|||^2."""
        lam, mu = self.material.lam, self.material.mu
        g = (self._grad_op @ v.coeffs).reshape(-1, 2, 2)
        exx = g[:, 0, 0]
        eyy = g[:, 1, 1]
        exy = 0.5 * (g[:, 0, 1] + g[:, 1, 0])
        tr = exx + eyy
        density = lam * tr**2 + 2.0 * mu * (exx**2 + eyy**2 + 2.0 * exy**2)
        elem = float(np.dot(self.space.mesh.areas, density))

        # sum over Gauss points of |jump|^2 carries the uniform weight rho*mu:
        # (2 rho mu / h_e) * (h_e / 2) per point
        jumps = self._jump_op @ v.coeffs
        jump = float(self.rho * mu * np.dot(jumps, jumps))
        return elem, jump

    def __call__(self, v: CRFunction) -> float:
        elem, jump = self.breakdown(v)
        return float(np.sqrt(elem + jump))


def energy_norm(v: CRFunction, material: MaterialModel, rho: float) -> float:
    """One-shot evaluation of the mesh-dependent norm of a CR function."""
    return EnergyNormEvaluator(v.space, material, rho)(v)


def inter_mesh_error(u_coarse: CRFunction, u_fine: CRFunction,
                     material: MaterialModel, rho: float) -> float:
    """Energy norm of (prolongated coarse - fine) on the fine mesh."""
    return energy_norm(prolongate(u_coarse, u_fine.space) - u_fine, material, rho)
