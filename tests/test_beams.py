"""Zeeman shifts, the dipole-force table, intensity ratios, pulse trains."""

import math

import numpy as np
import pytest
import scipy.constants as const

from penninggate import get_species
from penninggate.beams import (
    ForceTerm,
    Level,
    Line,
    Polarization,
    PulseSequence,
    QubitState,
    Regime,
    Scheme,
    build_pulse_sequence,
    classify_regime,
    dipole_force,
    lande_g,
    solve_intensity_ratio,
    verify_conditions,
    zeeman_shift,
)
from penninggate.beams import _branch_forces

MU_B = const.physical_constants["Bohr magneton"][0]
HBAR = const.hbar


def test_zeeman_shift_against_lande_oracle():
    # independent evaluation of the Lande formula per level
    for level, (l, j) in ((Level.S12, (0, 0.5)), (Level.P12, (1, 0.5)),
                          (Level.P32, (1, 1.5))):
        g = lande_g(l, 0.5, j)
        for m_j in np.arange(-j, j + 1):
            assert zeeman_shift(level, m_j, 2.5) == pytest.approx(
                MU_B * g * m_j * 2.5, rel=1e-14
            )
    assert zeeman_shift(Level.S12, 0.5, 1.0) == pytest.approx(MU_B, rel=1e-14)
    assert zeeman_shift(Level.P12, -0.5, 1.0) == pytest.approx(-MU_B / 3.0, rel=1e-14)


def test_zeeman_shift_zero_field_and_bad_mj():
    for level in Level:
        assert zeeman_shift(level, 0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        zeeman_shift(Level.S12, 1.5, 1.0)
    with pytest.raises(ValueError):
        zeeman_shift(Level.P32, 0.4, 1.0)


def test_regime_classification_quoted_cases():
    assert classify_regime(get_species("Be+"), 4.5) is Regime.ZEEMAN
    assert classify_regime(get_species("Be+"), 30.0) is Regime.PASCHEN_BACK
    assert classify_regime(get_species("Mg+"), 12.0) is Regime.ZEEMAN


def test_regime_monotone_in_field():
    record = get_species("Ca+")
    order = {Regime.ZEEMAN: 0, Regime.INTERMEDIATE: 1, Regime.PASCHEN_BACK: 2}
    fields = np.linspace(0.0, 1200.0, 60)
    ranks = [order[classify_regime(record, b)] for b in fields]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_unknown_species_rejected():
    with pytest.raises(KeyError):
        get_species("Fr+")


def test_dipole_force_zero_entries():
    assert dipole_force(ForceTerm(Line.D1, Polarization.SIGMA_MINUS, QubitState.ZERO,
                                  1e11, 1.0, 1e9)) == 0.0
    assert dipole_force(ForceTerm(Line.D1, Polarization.SIGMA_PLUS, QubitState.ONE,
                                  1e11, 1.0, 1e9)) == 0.0


def test_dipole_force_pi_d2_entry():
    delta, b = 2.3e11, 7.7e8
    value = dipole_force(ForceTerm(Line.D2, Polarization.PI, QubitState.ZERO,
                                   delta, 1.0, b))
    assert value == pytest.approx(1.0 / (2 * HBAR * (b - 3 * delta)), rel=1e-14)


def test_dipole_force_paschen_back_rejected():
    record = get_species("Be+")
    b_rate = MU_B * 30.0 / HBAR
    term = ForceTerm(Line.D1, Polarization.PI, QubitState.ZERO, 1e13, 1.0, b_rate)
    with pytest.raises(ValueError, match="Paschen-Back"):
        dipole_force(term, record)


def test_table_two_level_limit_at_zero_field():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d1, d2 = rng.uniform(1e10, 1e12, 2)
        for state in QubitState:
            total_d1 = sum(
                dipole_force(ForceTerm(Line.D1, pol, state, d1, 1.0, 0.0))
                for pol in Polarization
            )
            total_d2 = sum(
                dipole_force(ForceTerm(Line.D2, pol, state, d2, 1.0, 0.0))
                for pol in Polarization
            )
            assert total_d1 == pytest.approx(-1.0 / (4 * HBAR * d1), rel=1e-12)
            assert total_d2 == pytest.approx(-1.0 / (2 * HBAR * d2), rel=1e-12)


def test_table_zero_field_swap_symmetry():
    # flipping the field sign is the same as swapping both the qubit states
    # and the circular polarizations; at B = 0 the swap is therefore a
    # symmetry of the table, and the pi row is state-independent outright
    d1, d2 = 3.1e11, 4.2e11
    swap_pol = {Polarization.SIGMA_MINUS: Polarization.SIGMA_PLUS,
                Polarization.SIGMA_PLUS: Polarization.SIGMA_MINUS,
                Polarization.PI: Polarization.PI}
    swap_state = {QubitState.ZERO: QubitState.ONE, QubitState.ONE: QubitState.ZERO}
    for pol in Polarization:
        for line, delta in ((Line.D1, d1), (Line.D2, d2)):
            for state in QubitState:
                direct = dipole_force(ForceTerm(line, pol, state, delta, 1.0, 0.0))
                swapped = dipole_force(
                    ForceTerm(line, swap_pol[pol], swap_state[state], delta, 1.0, 0.0)
                )
                assert direct == pytest.approx(swapped, rel=1e-12)
    for line, delta in ((Line.D1, d1), (Line.D2, d2)):
        f0 = dipole_force(ForceTerm(line, Polarization.PI, QubitState.ZERO, delta, 1.0, 0.0))
        f1 = dipole_force(ForceTerm(line, Polarization.PI, QubitState.ONE, delta, 1.0, 0.0))
        assert f0 == pytest.approx(f1, rel=1e-12)


def test_sigma_plus_ratio_closed_form():
    d1, d2, b = -3.7e11, 2.9e11, 4.1e9
    ratio = solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, d1, d2, b)
    expected = (4 * b - 3 * d1) * (2 * d2 - 3 * b) / ((d2 - b) * (3 * d2 - 5 * b))
    assert ratio.value == pytest.approx(expected, rel=1e-14)


def _closed_form_ratio(scheme, d1, d2, b, branch):
    """The ratios solved by hand, one closed form per scheme."""
    b = b if branch > 0 else -b
    if scheme is Scheme.SAME_SIGMA_MINUS:
        scheme, b = Scheme.SAME_SIGMA_PLUS, -b
    if scheme is Scheme.SAME_SIGMA_PLUS:
        return (4 * b - 3 * d1) * (2 * d2 - 3 * b) / ((d2 - b) * (3 * d2 - 5 * b))
    if scheme is Scheme.MIXED:
        return (4 * b - 3 * d1) * (2 * d2 + 3 * b) / ((d2 + b) * (3 * d2 + 5 * b))
    return (4 * b - 3 * d1) / (3 * d2 + 4 * b)  # MIXED_P_HALF


def test_intensity_ratio_matches_closed_forms():
    rng = np.random.default_rng(2010)
    for _ in range(500):
        b = rng.uniform(1e8, 5e9)
        d1, d2 = rng.choice([-1.0, 1.0], 2) * rng.uniform(1e10, 5e11, 2)
        for scheme in Scheme:
            for branch in (+1, -1):
                value = solve_intensity_ratio(scheme, d1, d2, b, branch=branch).value
                assert value == pytest.approx(_closed_form_ratio(scheme, d1, d2, b, branch),
                                              rel=1e-14)


def test_intensity_ratio_resonant_detuning_raises():
    b = 3e9
    with pytest.raises(ZeroDivisionError):
        solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, -2e11, b, b)


def test_intensity_ratio_back_substitution():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        b = rng.uniform(1e8, 5e9)
        d1 = -rng.uniform(1e10, 5e11)
        d2 = rng.uniform(1e10, 5e11)
        ratio = solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, d1, d2, b)
        forces = _branch_forces(Scheme.SAME_SIGMA_PLUS, +1, d1, d2, b, ratio.value, 1.0)
        resid = abs(forces[QubitState.ZERO] + forces[QubitState.ONE])
        scale = max(abs(forces[QubitState.ZERO]), abs(forces[QubitState.ONE]), 1e-300)
        assert resid < 1e-12 * scale


def test_intensity_ratio_all_schemes_balance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = rng.uniform(1e8, 5e9)
        d1 = -rng.uniform(1e10, 5e11)
        d2 = rng.uniform(1e10, 5e11)
        for scheme in Scheme:
            for branch in (+1, -1):
                ratio = solve_intensity_ratio(scheme, d1, d2, b, branch=branch)
                forces = _branch_forces(scheme, branch, d1, d2, b, ratio.value, 1.0)
                resid = abs(forces[QubitState.ZERO] + forces[QubitState.ONE])
                scale = max(abs(forces[QubitState.ZERO]), 1e-300)
                assert resid < 1e-11 * scale


def test_intensity_ratio_zero_field_limit():
    d1, d2 = -2.0e11, 3.0e11
    small = solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, d1, d2, 1e2).value
    assert small == pytest.approx(-2 * d1 / d2, rel=1e-6)


def test_intensity_ratio_scale_invariance():
    d1, d2, b = -2.0e11, 3.0e11, 2e9
    base = solve_intensity_ratio(Scheme.MIXED, d1, d2, b).value
    for lam in (0.5, 3.0, 17.0):
        scaled = solve_intensity_ratio(Scheme.MIXED, lam * d1, lam * d2, lam * b).value
        assert scaled == pytest.approx(base, rel=1e-13)


def test_intensity_ratio_flags_unphysical():
    # same-sign detunings force a negative ratio in the B -> 0 limit
    ratio = solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, 2e11, 3e11, 1e5)
    assert not ratio.physical
    assert ratio.value < 0


@pytest.fixture
def sequence():
    return build_pulse_sequence(
        Scheme.SAME_SIGMA_PLUS,
        nu=2 * math.pi * 1e6,
        n_periods=6,
        delta_1=-2e11,
        delta_2=3e11,
        b_rate=3e9,
    )


def test_pulse_intensity_zero_at_switch_instants(sequence):
    nu = sequence.modulation
    switches = np.arange(1, 12) * math.pi / nu
    f0, f1 = sequence.state_force(switches)
    peak = abs(sequence.state_coefficients["+"][QubitState.ZERO])
    assert np.abs(f0).max() < 1e-25 * peak
    assert np.abs(f1).max() < 1e-25 * peak


def test_pulse_conditions_all_schemes():
    for scheme in Scheme:
        seq = build_pulse_sequence(scheme, nu=2 * math.pi * 1e6, n_periods=4,
                                   delta_1=-2e11, delta_2=3e11, b_rate=3e9)
        report = verify_conditions(seq)
        assert report.opposition_residual < 1e-8
        assert report.mean_residual["0"] < 1e-10
        assert report.mean_residual["1"] < 1e-10


def test_pulse_sensitivity_to_ratio_error(sequence):
    coeffs = {k: dict(v) for k, v in sequence.state_coefficients.items()}
    coeffs["+"][QubitState.ZERO] *= 1.01
    perturbed = PulseSequence(sequence.segments, sequence.modulation, sequence.scheme,
                              sequence.b_rate, coeffs)
    report = verify_conditions(perturbed)
    assert 3e-3 < report.opposition_residual < 3e-2


def test_empty_sequence_reports_zero():
    seq = PulseSequence(segments=[], modulation=1.0, scheme=Scheme.MIXED, b_rate=0.0,
                        state_coefficients={})
    report = verify_conditions(seq)
    assert report.opposition_residual == 0.0
    assert report.mean_residual == {"0": 0.0, "1": 0.0}


def test_unsolvable_branch_rejected():
    # same-sign detunings: unphysical ratio on the plus branch
    with pytest.raises(ValueError, match="not realizable"):
        build_pulse_sequence(Scheme.SAME_SIGMA_PLUS, nu=2 * math.pi * 1e6, n_periods=2,
                             delta_1=2e11, delta_2=3e11, b_rate=1e9)


def test_sequence_export_contract(sequence):
    times, f0, f1 = sequence.sample_envelope(samples_per_period=40)
    assert len(times) >= 40 * 6
    assert np.abs(f0 + f1).max() < 1e-10 * np.abs(f0).max()
    # intensity continuity at the half-period boundary: values near switch are small
    nu = sequence.modulation
    near = np.abs((times % (math.pi / nu))) < 1e-3 * math.pi / nu
    assert np.abs(f0[near]).max() < 1e-4 * np.abs(f0).max()


def test_detuning_chain_configuration_check():
    splitting = get_species("Be+").species.fine_structure_splitting
    good = ForceTerm(Line.D1, Polarization.PI, QubitState.ZERO,
                     detuning=1e11, chi=1.0, b_rate=1e9)
    good.check_detuning_chain(species_splitting=splitting)
    shallow = ForceTerm(Line.D1, Polarization.PI, QubitState.ZERO,
                        detuning=5e9, chi=1.0, b_rate=1e9)
    with pytest.raises(ValueError, match="Zeeman rate"):
        shallow.check_detuning_chain()
    deep = ForceTerm(Line.D1, Polarization.PI, QubitState.ZERO,
                     detuning=8e11, chi=1.0, b_rate=1e9)
    with pytest.raises(ValueError, match="fine-structure"):
        deep.check_detuning_chain(species_splitting=splitting)
