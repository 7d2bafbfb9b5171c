"""Shared fixtures: reference domain, meshes, spaces and material."""

import numpy as np
import pytest

from crcontact.assembly import assemble_stiffness
from crcontact.cli import example_51_config
from crcontact.material import MaterialModel
from crcontact.mesh import generate_structured, refine_uniform
from crcontact.solver import SPDFactor, _contact_response, _optimal_step, uzawa_step_solve
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


def step_from_load(system, load, u_prev, cfg, g_a, factor=None, step=None):
    """``uzawa_step_solve`` on a load vector, set up as ``march`` does it.

    Passes u_base = K^-1 load, the contact response Z, its contact block M,
    zero multipliers and, unless given, the computed step.
    """
    factor = SPDFactor(system.K) if factor is None else factor
    space = system.space
    idx = space.contact_tangent_dof
    Z = M = None
    if g_a and len(idx):
        w = g_a * space.contact_edge_lengths
        Z, _ = _contact_response(factor, idx, w)
        M = np.asfortranarray(Z[idx])
        if step is None:
            step = _optimal_step(M, w)
    return uzawa_step_solve(system, factor.solve(load), Z, M, u_prev, np.zeros(len(idx)),
                            step, cfg)
