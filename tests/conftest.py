"""Shared fixtures: reference domain, meshes, spaces and material."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from crcontact.assembly import assemble_stiffness
from crcontact.cli import example_51_config
from crcontact.mesh import generate_structured, refine_uniform
from crcontact.solver import _contact_response, _optimal_step
from crcontact.space import CRFunction, build_space


@pytest.fixture(scope="session")
def config():
    """The built-in preset: clamped square with bottom contact."""
    return example_51_config()


@pytest.fixture(scope="session")
def domain(config):
    return config.domain


@pytest.fixture(scope="session")
def material(config):
    return config.material


@pytest.fixture(scope="session")
def mesh2(domain):
    return generate_structured(domain, 2)


@pytest.fixture(scope="session")
def mesh4(domain):
    return generate_structured(domain, 4)


@pytest.fixture(scope="session")
def space2(mesh2):
    return build_space(mesh2)


@pytest.fixture(scope="session")
def space4(mesh4):
    return build_space(mesh4)


@pytest.fixture(scope="session")
def system2(space2, material, config):
    return assemble_stiffness(space2, material, config.rho)


@pytest.fixture(scope="session")
def refined2(mesh2):
    return refine_uniform(mesh2)


def random_cr(space, rng, scale=1.0):
    """A CR function with independent standard-normal coefficients."""
    return CRFunction(space, scale * rng.standard_normal(space.n_dofs_free))


def field_at(fn, points):
    """``fn`` at (nt, npts, 2) points, row t inside triangle t: (nt, npts, 2)."""
    tris = np.arange(fn.space.mesh.n_triangles)
    return fn.space.basis_values(tris, points) @ fn.edge_values()[fn.space.mesh.tri_edges]


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def contact_setup(factor, idx, weights):
    """The contact response Z, its contact block M and the Uzawa step, as ``march`` forms them."""
    Z = _contact_response(factor, idx, weights)
    M = np.asfortranarray(Z[idx])
    return Z, M, _optimal_step(M, weights)


def random_tresca_problems():
    """Ten seed-42 synthetic Tresca steps: (K, F, idx, weights, prev) per trial.

    K is 16 x 16 SPD, four of its DOFs are tangential contact DOFs with
    friction weights g w, and ``prev`` is their previous-step value.
    """
    rng = np.random.default_rng(42)
    for _ in range(10):
        n, m = 16, 4
        A = rng.standard_normal((n, n))
        K = sp.csr_matrix(A @ A.T + n * np.eye(n))
        F = rng.standard_normal(n)
        idx = rng.choice(n, size=m, replace=False)
        g = rng.uniform(0.0, 0.01)
        w = rng.uniform(0.5, 2.0, m)
        prev = 0.01 * rng.standard_normal(m)
        yield K, F, idx, g * w, prev
