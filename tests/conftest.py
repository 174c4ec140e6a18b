"""Shared fixtures: the two reference working points and their spectra.

The N = 30 equilibria are expensive enough to share per session; everything
derived from them is deterministic, so reuse is safe.
"""

import math

import numpy as np
import pytest

from penninggate import (
    AnnealSchedule,
    TrapSetup,
    build_hessian,
    classify_bands,
    find_equilibrium,
    get_species,
    williamson,
)

NU_C_LOW = 76.08e3     # Hz, slow-rotation working point (alpha_z = 0.7)
NU_C_HIGH = 7.608e6    # Hz, experiment-scale working point (alpha_z = 0.02)


@pytest.fixture(scope="session")
def beryllium():
    return get_species("Be+").species


@pytest.fixture(scope="session")
def setup_low(beryllium):
    return TrapSetup(beryllium, 2 * math.pi * NU_C_LOW, 0.7, 30)


@pytest.fixture(scope="session")
def setup_high(beryllium):
    return TrapSetup(beryllium, 2 * math.pi * NU_C_HIGH, 0.02, 30)


@pytest.fixture(scope="session")
def eq_low_p0(setup_low):
    return find_equilibrium(setup_low, 0.0, AnnealSchedule(seed=7))


@pytest.fixture(scope="session")
def eq_low_p4000(setup_low, eq_low_p0):
    return find_equilibrium(setup_low, 4000.0, initial_positions=eq_low_p0.positions)


@pytest.fixture(scope="session")
def eq_high(setup_high):
    return find_equilibrium(setup_high, 1.3e5, AnnealSchedule(seed=7))


@pytest.fixture(scope="session")
def spectrum_high(eq_high):
    return williamson(build_hessian(eq_high))


@pytest.fixture(scope="session")
def bands_high(spectrum_high, setup_high):
    return classify_bands(spectrum_high, setup_high)


@pytest.fixture(scope="session")
def pair_high(eq_high):
    radii = np.hypot(eq_high.positions[:, 0], eq_high.positions[:, 1])
    inner = int(np.argmin(radii))
    dist = np.linalg.norm(eq_high.positions - eq_high.positions[inner], axis=1)
    dist[inner] = np.inf
    return (inner, int(np.argmin(dist)))


@pytest.fixture(scope="session")
def small_pair_setup(beryllium):
    return TrapSetup(beryllium, 2 * math.pi * NU_C_LOW, 0.7, 2)


@pytest.fixture(scope="session")
def eq_pair(small_pair_setup):
    return find_equilibrium(small_pair_setup, 0.0, AnnealSchedule(seed=3))


@pytest.fixture(scope="session")
def spectrum_fig4(setup_high):
    # the README fig4 crystal: the setup_high trap and P_theta with seed 11
    return williamson(build_hessian(find_equilibrium(setup_high, 1.3e5, AnnealSchedule(seed=11))))
