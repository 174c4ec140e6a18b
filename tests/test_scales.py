"""Closed-form trap relations, the unit system, and the species table."""

import math

import numpy as np
import pytest

from penninggate import (
    IonSpecies,
    StabilityClass,
    TrapSetup,
    anisotropy,
    beta_critical,
    beta_from_ratio,
    derive_scales,
    effective_radial_frequency,
    get_species,
    lande_g,
    load_species_table,
    stability_class,
    trap_frequencies,
)

TWO_PI = 2 * math.pi


def test_magnetic_field_matches_quoted_experiment_value(beryllium):
    setup = TrapSetup(beryllium, TWO_PI * 7.608e6, 0.02, 30)
    assert setup.magnetic_field == pytest.approx(4.5, rel=0.02)


def test_length_scale_cube_root_law(beryllium):
    base = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 30)
    fast = TrapSetup(beryllium, 8 * TWO_PI * 76.08e3, 0.7, 30)
    assert derive_scales(fast).length == pytest.approx(derive_scales(base).length / 4.0, rel=1e-12)


def test_length_scale_against_independently_entered_constants(beryllium):
    # duplicate-constant oracle: CODATA values typed in separately
    e = 1.602176634e-19
    eps0 = 8.8541878128e-12
    m = 9.0121831 * 1.66053906660e-27
    wc = TWO_PI * 76.08e3
    expected = (e**2 / (4 * math.pi * eps0 * m * wc**2)) ** (1.0 / 3.0)
    setup = TrapSetup(beryllium, wc, 0.7, 30)
    assert derive_scales(setup).length == pytest.approx(expected, rel=1e-8)


def test_scale_set_internal_consistency(setup_low, setup_high):
    for setup in (setup_low, setup_high):
        scales = derive_scales(setup)
        m = setup.species.mass
        wc = setup.cyclotron_frequency
        assert scales.momentum == pytest.approx(scales.length * m * wc, rel=1e-14)
        assert scales.energy / (scales.length**2 * m * wc**2) == pytest.approx(1.0, rel=1e-12)
        assert scales.hbar_tilde > 0


def test_trap_frequencies_slow_rotation_point(setup_low):
    freqs = trap_frequencies(setup_low)
    assert freqs.omega_z / TWO_PI == pytest.approx(53.26e3, abs=10.0)
    assert freqs.omega_xy / TWO_PI == pytest.approx(5.38e3, abs=10.0)


def test_trap_frequencies_experiment_scale_point(setup_high):
    freqs = trap_frequencies(setup_high)
    assert freqs.omega_z / TWO_PI == pytest.approx(152.16e3, rel=1e-6)
    assert freqs.omega_xy / TWO_PI == pytest.approx(3.80e6, rel=0.005)


def test_trap_frequencies_boundary_and_rejection(beryllium):
    near = TrapSetup(beryllium, TWO_PI * 1e6, 1 / math.sqrt(2) - 1e-9, 2)
    assert trap_frequencies(near).omega_xy / near.cyclotron_frequency < 1e-4
    with pytest.raises(ValueError):
        TrapSetup(beryllium, TWO_PI * 1e6, 1 / math.sqrt(2), 2)


@pytest.mark.parametrize("omega_c", [0.0, math.nan, math.inf])
def test_trap_setup_refuses_a_non_finite_cyclotron_frequency(beryllium, omega_c):
    with pytest.raises(ValueError, match=f"^cyclotron_frequency must be positive and finite, "
                                         f"got {omega_c}$"):
        TrapSetup(beryllium, omega_c, 0.02, 30)


def test_anisotropy_slow_rotation_value(setup_low):
    beta = anisotropy(TWO_PI * 32.75e3, setup_low)
    assert beta == pytest.approx(3.4e-4, abs=0.1e-4)


def test_anisotropy_maximum_at_half_cyclotron(setup_low):
    wc = setup_low.cyclotron_frequency
    expected = 1.0 / (4 * setup_low.axial_ratio**2) - 0.5
    assert anisotropy(0.5 * wc, setup_low) == pytest.approx(expected, rel=1e-14)
    probes = np.linspace(0.1, 0.9, 17) * wc
    assert all(anisotropy(w, setup_low) <= expected for w in probes)


def test_anisotropy_experiment_scale_value(setup_high):
    beta = anisotropy(TWO_PI * 1.65e3, setup_high)
    assert beta == pytest.approx(4e-2, abs=0.3e-2)


def test_stability_classification():
    assert stability_class(3.4e-4, 30) is StabilityClass.PLANAR_2D
    assert beta_critical(30) == pytest.approx(0.1214, abs=5e-4)
    assert stability_class(-0.01, 5) is StabilityClass.UNCONFINED
    assert stability_class(-0.01, 500) is StabilityClass.UNCONFINED
    # independent threshold evaluation
    assert 0.2 > 0.665 / math.sqrt(30)
    assert stability_class(0.2, 30) is StabilityClass.CONFINED_3D


def test_effective_radial_frequency_value(setup_high):
    nu_eff = effective_radial_frequency(TWO_PI * 1.65e3, setup_high) / TWO_PI
    assert nu_eff == pytest.approx(31.47e3, abs=1e3)
    # the 1.65 kHz input is rounded; 31.47 kHz corresponds to nu_r ~ 1.652 kHz
    assert effective_radial_frequency(TWO_PI * 1.652e3, setup_high) / TWO_PI == pytest.approx(
        31.47e3, abs=0.05e3
    )


def test_effective_radial_frequency_reduces_to_omega_xy(setup_low):
    wc = setup_low.cyclotron_frequency
    assert effective_radial_frequency(0.5 * wc, setup_low) == pytest.approx(
        trap_frequencies(setup_low).omega_xy, rel=1e-12
    )


def test_effective_radial_frequency_reflection_symmetry(setup_low):
    wc = setup_low.cyclotron_frequency
    for w in np.linspace(0.44, 0.56, 7) * wc:
        assert effective_radial_frequency(w, setup_low) == pytest.approx(
            effective_radial_frequency(wc - w, setup_low), rel=1e-12
        )


def test_confinement_window_matches_magnetron_bounds(beryllium):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        alpha_z = rng.uniform(0.01, 1 / math.sqrt(2) - 1e-3)
        setup = TrapSetup(beryllium, TWO_PI * 1e6, alpha_z, 10)
        freqs = trap_frequencies(setup)
        wc = setup.cyclotron_frequency
        w = rng.uniform(0.0, wc)
        inside = freqs.omega_m < w < wc - freqs.omega_m
        assert (anisotropy(w, setup) > 0) == inside


def test_anisotropy_reflection_symmetry(setup_low):
    rng = np.random.default_rng(1)
    wc = setup_low.cyclotron_frequency
    for w in rng.uniform(0.0, 1.0, 200) * wc:
        assert anisotropy(w, setup_low) == pytest.approx(
            anisotropy(wc - w, setup_low), abs=1e-14
        )


def test_species_table_lande_factors_and_thresholds():
    import scipy.constants as const

    # LS-coupling Lande factors of S_1/2, P_1/2 and P_3/2 (s = 1/2)
    assert lande_g(0, 0.5, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert lande_g(1, 0.5, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert lande_g(1, 0.5, 1.5) == pytest.approx(4.0 / 3.0, abs=1e-12)
    table = load_species_table()
    assert set(table) == {"Be+", "Mg+", "Ca+", "Na"}
    for record in table.values():
        sp = record.species
        # tabulated regime bounds are consistent with the splitting:
        # mu_B B_Z ~ DeltaE/2 and B_PB = 4 B_Z
        mu_b = const.physical_constants["Bohr magneton"][0]
        implied = sp.fine_structure_splitting * const.hbar / (2 * mu_b)
        assert record.b_zeeman_max == pytest.approx(implied, rel=2e-3)
        assert record.b_paschen_back_min == pytest.approx(4 * record.b_zeeman_max, rel=2e-3)


def test_species_invariant_rejection():
    good = get_species("Be+").species
    with pytest.raises(ValueError):
        IonSpecies(
            name="bad",
            mass=0.0,
            charge=good.charge,
            fine_structure_splitting=good.fine_structure_splitting,
            linewidth=good.linewidth,
            omega_d1=good.omega_d1,
            omega_d2=good.omega_d2,
            dipole_d1=good.dipole_d1,
            dipole_d2=good.dipole_d2,
        )
    with pytest.raises(KeyError):
        get_species("Xe+")


def test_beta_from_ratio_matches_anisotropy(setup_low):
    wc = setup_low.cyclotron_frequency
    for w in (0.31 * wc, 0.47 * wc):
        assert beta_from_ratio(w / wc, setup_low.axial_ratio) == anisotropy(w, setup_low)
