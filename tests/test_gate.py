"""Driven-mode dynamics, phases, calibration, fidelity, and resources."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp, trapezoid

from penninggate import (
    GateSpec,
    LaserGeometry,
    TrapSetup,
    calibrate_amplitude,
    calibrated_phase,
    derive_scales,
    fidelity,
    fidelity_curve,
    laser_resources,
    residual_displacement,
    trap_frequencies,
    two_qubit_phase,
)
from penninggate import gate
from penninggate.crystal import CrystalState
from penninggate.gate import pair_couplings, thermal_weights
from penninggate.modes import ModeSpectrum

TWO_PI = 2 * math.pi


def synthetic_system(setup, omegas, m_matrix, separation=8.0):
    """Two-ion spectrum with orthogonal-mode coefficients A = M / sqrt(w).

    This is the minimal-coupling-free structure of alpha_r = 1/2: position
    coefficients are real rows M_k / sqrt(w_k).  On it the pair phase in the
    long-gate limit is the orthogonal-mode sum of the per-mode coefficients
    1/(2 hbar~ w_k^2) (adiabatic) or -1/(4 hbar~ (nu^2 - w_k^2)) (modulated).
    """
    omegas = np.asarray(omegas, dtype=float)
    n = 2
    positions = np.array([[separation / 2, 0.0, 0.0], [-separation / 2, 0.0, 0.0]])
    state = CrystalState(
        positions=positions,
        axial_ratio=setup.axial_ratio,
        rotation_frequency=0.5,
        angular_momentum=0.0,
        anisotropy=1.0 / (4 * setup.axial_ratio**2) - 0.5,
        energy=0.0,
        converged=True,
        gradient_norm=0.0,
    )
    coeffs = np.zeros((3 * n, 6 * n), dtype=complex)
    coeffs[:, 0::2] = m_matrix / np.sqrt(omegas)[:, None]
    coeffs[:, 1::2] = 1j * m_matrix * np.sqrt(omegas)[:, None]
    spectrum = ModeSpectrum(
        frequencies=omegas,
        symplectic=np.zeros((6 * n, 6 * n)),
        coefficients=coeffs,
        hessian=np.zeros((6 * n, 6 * n)),
        reference=state,
        regularized_mode=None,
    )
    return state, spectrum


def force_profile(times, spec, state, setup):
    """Force magnitude on each driven ion, along the pair separation, at
    physical times in seconds: the package's force prefactor times its drive
    waveform."""
    drive = gate._Drive.of(spec, setup)
    return gate._force_prefactor(spec, state, setup) * drive(
        np.asarray(times) * setup.cyclotron_frequency)


def mode_drive(spec, spectrum, state, setup, qubit_signs=(1.0, 1.0)):
    """Evaluator t(s) -> per-mode drive amplitudes alpha_k(t) for one qubit
    sign configuration; output shape (3N, len(t))."""
    weights = np.asarray(qubit_signs) @ pair_couplings(spec, spectrum, state, setup)
    return lambda t: weights[:, None] * force_profile(np.atleast_1d(t), spec, state, setup)


def mixing_matrix(angle=math.pi / 4):
    """Orthogonal 6x6: rows 0/1 mix the ions' x coordinates (columns 0, 3),
    the remaining rows relabel the untouched coordinates."""
    c, s = math.cos(angle), math.sin(angle)
    m = np.zeros((6, 6))
    m[0, 0], m[0, 3] = c, s
    m[1, 0], m[1, 3] = -s, c
    m[2, 1] = 1.0
    m[3, 4] = 1.0
    m[4, 2] = 1.0
    m[5, 5] = 1.0
    return m


@pytest.fixture(scope="module")
def gate_high(setup_high, eq_high, spectrum_high, pair_high):
    tau_r = TWO_PI / (eq_high.rotation_frequency * setup_high.cyclotron_frequency)
    tau_g = 6e-3 * tau_r
    nu = 0.51 * setup_high.cyclotron_frequency
    return GateSpec(target_pair=pair_high, carrier_frequency=nu, gate_time=tau_g)


def test_calibrated_phase_matches_a_fresh_phase(gate_high, eq_high, spectrum_high, setup_high):
    amplitude, phase = calibrated_phase(gate_high, spectrum_high, eq_high, setup_high)
    assert amplitude == calibrate_amplitude(gate_high, spectrum_high, eq_high, setup_high)
    fresh = two_qubit_phase(replace(gate_high, amplitude=amplitude), spectrum_high, eq_high,
                            setup_high)
    # theta applies the force factor after the cancelling mode sum, so both
    # share every digit of that sum; the state phases compare on their scale
    assert fresh.theta == pytest.approx(phase.theta, rel=1e-14, abs=0.0)
    scale = max(abs(value) for value in fresh.by_state.values())
    for label, value in fresh.by_state.items():
        assert phase.by_state[label] == pytest.approx(value, abs=1e-13 * scale)
    np.testing.assert_allclose(phase.mode_phases, fresh.mode_phases, rtol=1e-12,
                               atol=1e-13 * np.abs(fresh.mode_phases).max())


def test_force_profile_peak_and_direction(gate_high, eq_high, spectrum_high, setup_high):
    spec, state = gate_high, eq_high
    scales = derive_scales(setup_high)
    freqs = trap_frequencies(setup_high)
    j1, j2 = spec.target_pair
    sep = state.positions[j1, :2] - state.positions[j2, :2]
    dist = np.linalg.norm(sep)
    expected = scales.hbar_tilde * (freqs.omega_xy / setup_high.cyclotron_frequency) / dist
    peak = force_profile(spec.center, spec, state, setup_high)
    assert peak == pytest.approx(expected, rel=1e-12)
    # each ion couples through its position coefficients along the separation
    rows = spectrum_high.position_coefficients().T
    along = [(sep[0] * rows[3 * j] + sep[1] * rows[3 * j + 1]) / dist for j in (j1, j2)]
    np.testing.assert_allclose(pair_couplings(spec, spectrum_high, state, setup_high),
                               np.array(along) / math.sqrt(2.0 * scales.hbar_tilde),
                               rtol=1e-12, atol=1e-12 * np.abs(along).max())


def test_force_profile_edge_suppression(gate_high, eq_high, setup_high):
    peak = abs(force_profile(gate_high.center, gate_high, eq_high, setup_high))
    edges = force_profile([0.0, gate_high.gate_time], gate_high, eq_high, setup_high)
    assert np.abs(edges).max() < 1e-8 * peak


def test_force_profile_time_integral_vanishes(eq_high, setup_high, pair_high):
    # at least 50 carrier cycles under the gate window
    tau_g = 4e-6
    nu = TWO_PI * 55 / tau_g
    spec = GateSpec(target_pair=pair_high, carrier_frequency=nu, gate_time=tau_g)
    times = np.linspace(0.0, tau_g, 200001)
    values = force_profile(times, spec, eq_high, setup_high)
    integral = trapezoid(values, times)
    peak = np.abs(values).max()
    assert abs(integral) < 1e-6 * peak * tau_g


def test_mode_drive_linearity_and_selection(gate_high, eq_high, spectrum_high, setup_high):
    zero_spec = replace(gate_high, amplitude=0.0)
    drive = mode_drive(zero_spec, spectrum_high, eq_high, setup_high)
    assert np.abs(drive([gate_high.center])).max() == 0.0

    plus = mode_drive(gate_high, spectrum_high, eq_high, setup_high, (1.0, 1.0))
    minus = mode_drive(gate_high, spectrum_high, eq_high, setup_high, (-1.0, -1.0))
    t = np.linspace(0.0, gate_high.gate_time, 11)
    np.testing.assert_allclose(plus(t), -minus(t), rtol=0, atol=1e-18)

    # axial modes carry no in-plane force coupling in a planar crystal
    values = plus(t)
    axial = [
        k
        for k in range(spectrum_high.n_modes)
        if 0.01 < spectrum_high.frequencies[k] < 0.1
    ]
    assert axial, "no axial modes identified"
    assert np.abs(values[axial]).max() < 1e-12 * np.abs(values).max()


def test_mode_drive_rows_integrate_to_the_residual_rows(gate_high, eq_high, spectrum_high,
                                                        setup_high):
    # the drive of qubit signs (1, 0) is ion j1's alone and (0, 1) ion j2's,
    # so its e^(i w t) / sqrt(w) integral is residual row 0 or row 1
    wc = setup_high.cyclotron_frequency
    omegas = spectrum_high.frequencies
    times = np.linspace(0.0, gate_high.gate_time, 20001)
    phases = np.exp(1j * np.outer(omegas, times * wc)) / np.sqrt(omegas)[:, None]
    rows = residual_displacement(gate_high, spectrum_high, eq_high, setup_high)
    scale = np.abs(rows).max()
    for r, signs in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        drive = mode_drive(gate_high, spectrum_high, eq_high, setup_high, signs)
        integral = trapezoid(drive(times) * phases, times * wc, axis=1)
        assert np.abs(integral - rows[r]).max() <= 1e-4 * scale
        assert np.abs(integral - rows[1 - r]).max() > 1e-2 * scale


def test_residual_displacement_linearity(gate_high, eq_high, spectrum_high, setup_high):
    base = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                 amplitude=1.0)[0]
    doubled = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                    amplitude=2.0)[0]
    np.testing.assert_array_equal(doubled, 2.0 * base)
    # non-binary factors only reshuffle the node-level rounding of the
    # heavily cancelled oscillatory integrals
    scaled = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                   amplitude=3.5)[0]
    np.testing.assert_allclose(scaled, 3.5 * base, rtol=1e-5,
                               atol=1e-5 * 3.5 * np.abs(base).max())
    zero = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                 amplitude=0.0)[0]
    assert np.abs(zero).max() == 0.0


@pytest.fixture(scope="module")
def slow_rotation_gate(eq_low_p4000):
    """Spectrum and pulse at the slow-rotation point: nine carrier periods
    under the window, so the default width tau/9 is one carrier period, the
    widest envelope spectrum relative to its carrier in the suite."""
    from penninggate import build_hessian, williamson

    spectrum = williamson(build_hessian(eq_low_p4000))
    radii = np.hypot(eq_low_p4000.positions[:, 0], eq_low_p4000.positions[:, 1])
    inner = int(np.argmin(radii))
    dist = np.linalg.norm(eq_low_p4000.positions - eq_low_p4000.positions[inner], axis=1)
    dist[inner] = np.inf
    pair = (inner, int(np.argmin(dist)))
    tau_g = 3.05e-6
    spec = GateSpec(target_pair=pair, carrier_frequency=TWO_PI * 9 / tau_g,
                    gate_time=tau_g)
    return spectrum, spec


def test_residual_displacement_quadrature_converged(setup_low, eq_low_p4000, slow_rotation_gate,
                                                    monkeypatch):
    # slow-rotation configuration: residuals are far above the rounding
    # floor, so per-mode relative convergence is meaningful
    spectrum, spec = slow_rotation_gate
    drive = gate._Drive.of(spec, setup_low)
    coarse_nodes = drive.transform_grid(spectrum.frequencies).flat_times.size
    coarse = residual_displacement(spec, spectrum, eq_low_p4000, setup_low,
                                   amplitude=1.0)[0]
    monkeypatch.setattr(gate, "_TRANSFORM_HALF_PANEL_PHASE", 0.5 * gate._TRANSFORM_HALF_PANEL_PHASE)
    assert drive.transform_grid(spectrum.frequencies).flat_times.size > coarse_nodes
    fine = residual_displacement(spec, spectrum, eq_low_p4000, setup_low, amplitude=1.0)[0]
    assert not np.array_equal(coarse, fine)
    # modes the drive does not reach (the axial block of this planar
    # crystal) have an exactly zero coupling, hence exactly zero residuals
    dark = fine == 0.0
    assert dark.any() and np.all(coarse[dark] == 0.0)
    rel = np.abs(coarse[~dark] - fine[~dark]) / np.abs(fine[~dark])
    assert rel.max() < 1e-8


def test_residuals_of_modes_the_pair_does_not_reach_are_exact_zeros(
        gate_high, eq_high, spectrum_high, bands_high, setup_high, monkeypatch):
    # in a planar crystal the N axial modes have no in-plane coupling: their
    # residuals are exact zeros, and the drive integral skips them
    axial = np.array([label == "axial" for label in bands_high.labels])
    assert axial.sum() == eq_high.n_ions
    transformed = []
    original = gate._Drive.transform

    def recorded(drive, omegas, scale):
        transformed.append(np.array(omegas))
        return original(drive, omegas, scale)

    monkeypatch.setattr(gate._Drive, "transform", recorded)
    residuals = residual_displacement(gate_high, spectrum_high, eq_high, setup_high)
    assert np.all(residuals[:, axial] == 0.0) and np.all(residuals[:, ~axial] != 0.0)
    assert len(transformed) == 1
    np.testing.assert_array_equal(transformed[0], spectrum_high.frequencies[~axial])


def _per_ion_residual(spec, spectrum, state, setup, row, amplitude):
    """The single-ion residual formula that the pair residuals replaced."""
    coupling = pair_couplings(spec, spectrum, state, setup)[row]
    prefactor = gate._force_prefactor(spec, state, setup, amplitude=amplitude)
    omegas = spectrum.frequencies
    return coupling * gate._Drive.of(spec, setup).transform(omegas, prefactor) / np.sqrt(omegas)


@pytest.mark.parametrize("amplitude", [None, 1.0, 3.5])
def test_pair_residuals_equal_the_per_ion_formula(gate_high, eq_high, spectrum_high,
                                                  setup_high, amplitude):
    spec = replace(gate_high, amplitude=2.5e4)
    pair = residual_displacement(spec, spectrum_high, eq_high, setup_high,
                                 amplitude=amplitude)
    assert pair.shape == (2, spectrum_high.n_modes)
    for r, row in enumerate(pair):
        expected = _per_ion_residual(spec, spectrum_high, eq_high, setup_high, r, amplitude)
        np.testing.assert_array_equal(row, expected)


def _windowed_carrier_transform(omega, drive, mp):
    """int_0^tau cos(nu (t - t_c)) exp(-((t - t_c)/sigma)^2) exp(i omega t) dt in
    closed form: e^(i omega t_c)/2 sum over kappa = omega +/- nu of
    (sqrt(pi) sigma/2) e^(-y^2) [erf((tau - t_c)/sigma - iy) - erf(-t_c/sigma - iy)],
    y = kappa sigma/2, evaluated at the working precision of ``mp``."""
    tau, center, sigma, nu = (mp.mpf(getattr(drive, key))
                              for key in ("tau", "center", "width", "nu"))
    omega = mp.mpf(omega)
    total = 0
    for kappa in (omega + nu, omega - nu):
        y = kappa * sigma / 2
        total += mp.exp(-y**2) * (mp.erf((tau - center) / sigma - 1j * y)
                                  - mp.erf(-center / sigma - 1j * y))
    return complex(mp.exp(1j * omega * center) * mp.sqrt(mp.pi) * sigma / 4 * total)


@pytest.mark.parametrize("tau_ratio", [0.006, 0.05, 0.2])
def test_drive_integral_matches_the_mpmath_closed_form(eq_high, spectrum_high, setup_high,
                                                       bands_high, pair_high, tau_ratio):
    mpmath = pytest.importorskip("mpmath")
    from penninggate.bench import resolve_carrier

    wc = setup_high.cyclotron_frequency
    tau_r = TWO_PI / (eq_high.rotation_frequency * wc)
    spec = GateSpec(pair_high, resolve_carrier(bands_high) * wc, tau_ratio * tau_r)
    _assert_drive_integral_matches_mpmath(gate._Drive.of(spec, setup_high),
                                          spectrum_high.frequencies, mpmath)


def test_drive_integral_matches_the_mpmath_closed_form_at_slow_rotation(setup_low,
                                                                         slow_rotation_gate):
    # an envelope one carrier period wide spreads the integrand's spectrum
    # well past omega + nu, yet the transform's phase budget on omega + nu
    # still meets the bound
    mpmath = pytest.importorskip("mpmath")
    spectrum, spec = slow_rotation_gate
    _assert_drive_integral_matches_mpmath(gate._Drive.of(spec, setup_low),
                                          spectrum.frequencies, mpmath)


def _assert_drive_integral_matches_mpmath(drive, omegas, mp):
    """Every mode's transform is within 3e-14 sum |w c| of the 40-digit
    closed form, sum |w c| taken over the transform's own nodes."""
    got = drive.transform(omegas, 1.0)
    with mp.workdps(40):
        expected = np.array([_windowed_carrier_transform(w, drive, mp) for w in omegas])
    grid = drive.transform_grid(omegas)
    scale = np.abs(grid.weights.reshape(-1) * drive(grid.flat_times)).sum()
    assert np.abs(got - expected).max() <= 3e-14 * scale


def test_residual_matches_ode_displacement(gate_high, eq_high, spectrum_high, setup_high):
    """Independent route: time-stepped integration of the driven-mode ODE."""
    j1 = gate_high.target_pair[0]
    res = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                amplitude=1.0)[0]
    couplings = pair_couplings(gate_high, spectrum_high, eq_high, setup_high)
    wc = setup_high.cyclotron_frequency
    tau = gate_high.gate_time * wc
    scales = derive_scales(setup_high)
    freqs = trap_frequencies(setup_high)
    j2 = gate_high.target_pair[1]
    dist = np.linalg.norm(eq_high.positions[j1, :2] - eq_high.positions[j2, :2])
    prefactor = scales.hbar_tilde * (freqs.omega_xy / wc) / dist
    nu = gate_high.carrier_frequency / wc
    center = gate_high.center * wc
    width = gate_high.width * wc

    floor = 1e-8 * np.abs(res).max()
    for k in np.argsort(np.abs(res))[::-1][:4]:
        omega = spectrum_high.frequencies[k]
        w_k = couplings[0, k]

        def rhs(s, y):
            alpha = w_k * prefactor * math.cos(nu * (s - center)) * math.exp(
                -(((s - center) / width) ** 2)
            )
            beta = y[0] + 1j * y[1]
            dot = -1j * omega * beta - 1j * alpha
            return [dot.real, dot.imag]

        sol = solve_ivp(rhs, (0.0, tau), [0.0, 0.0], rtol=1e-13, atol=1e-26,
                        max_step=0.02 * TWO_PI / max(omega, nu))
        beta_end = sol.y[0, -1] + 1j * sol.y[1, -1]
        # I_k = (i / sqrt(w)) e^{i w tau} beta(tau)
        from_ode = 1j * np.exp(1j * omega * tau) * beta_end / math.sqrt(omega)
        # the ODE route carries solver error relative to the transient path
        # amplitude, which dwarfs the cancelled endpoint value
        path = np.abs(sol.y[0] + 1j * sol.y[1]).max() / math.sqrt(omega)
        tol = 1e-8 * abs(res[k]) + 100 * 1e-13 * path + floor
        assert abs(res[k] - from_ode) < tol


def test_phase_quadratic_in_amplitude(gate_high, eq_high, spectrum_high, setup_high):
    theta1 = two_qubit_phase(gate_high, spectrum_high, eq_high, setup_high).theta
    theta3 = two_qubit_phase(replace(gate_high, amplitude=3.0), spectrum_high, eq_high,
                             setup_high).theta
    assert theta3 == pytest.approx(9.0 * theta1, rel=1e-10)


def test_phase_bilinear_in_single_ion_force(gate_high, eq_high, spectrum_high, setup_high):
    theta = two_qubit_phase(gate_high, spectrum_high, eq_high, setup_high).theta
    # doubling ion j1's six coefficient columns doubles its coupling
    j1 = gate_high.target_pair[0]
    coefficients = spectrum_high.coefficients.copy()
    coefficients[:, 6 * j1:6 * j1 + 6] *= 2.0
    doubled = replace(spectrum_high, coefficients=coefficients)
    scaled = two_qubit_phase(gate_high, doubled, eq_high, setup_high).theta
    assert scaled == pytest.approx(2.0 * theta, rel=1e-9)


def test_phase_exchange_symmetry(gate_high, eq_high, spectrum_high, setup_high):
    swapped = replace(gate_high, target_pair=gate_high.target_pair[::-1])
    theta_a = two_qubit_phase(gate_high, spectrum_high, eq_high, setup_high).theta
    theta_b = two_qubit_phase(swapped, spectrum_high, eq_high, setup_high).theta
    assert theta_b == pytest.approx(theta_a, rel=1e-12)
    r1, r2 = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                   amplitude=1.0)
    f_a, _ = fidelity(r1, r2, 1e4, spectrum_high, 1e-3, setup_high)
    f_b, _ = fidelity(r2, r1, 1e4, spectrum_high, 1e-3, setup_high)
    assert f_b == pytest.approx(f_a, rel=1e-12)


def test_phase_adiabatic_oracle(setup_high):
    # slow drive, nu << omega: matches the adiabatic form-factor convolution
    wc = setup_high.cyclotron_frequency
    omegas = np.array([0.21, 0.33, 0.52, 0.64, 0.77, 0.9])
    m_matrix = mixing_matrix()
    state, spectrum = synthetic_system(setup_high, omegas, m_matrix)
    tau = 900.0 / wc
    spec = GateSpec(target_pair=(0, 1), carrier_frequency=0.001 * wc, gate_time=tau,
                    envelope_width=tau / 9.0)
    theta = two_qubit_phase(spec, spectrum, state, setup_high).theta

    scales = derive_scales(setup_high)
    coef = 1.0 / (2.0 * scales.hbar_tilde * omegas**2)
    s_adia = np.einsum("k,ka,kb->ab", coef, m_matrix, m_matrix)
    # the drive acts on the x coordinates (columns 0 and 3)
    freqs = trap_frequencies(setup_high)
    dist = np.linalg.norm(state.positions[0, :2] - state.positions[1, :2])
    mag = scales.hbar_tilde * (freqs.omega_xy / wc) / dist
    times = np.linspace(0.0, tau * wc, 400001)
    c = np.cos(0.001 * (times - tau * wc / 2)) * np.exp(
        -(((times - tau * wc / 2) / (tau * wc / 9.0)) ** 2)
    )
    convolution = mag**2 * trapezoid(c * c, times)
    theta_oracle = 8.0 * s_adia[0, 3] * convolution
    assert abs(theta) == pytest.approx(abs(theta_oracle), rel=0.01)


def test_phase_modulated_oracle(setup_high):
    # fast carrier nu = 10 omega: modulated form factor with cos^2 -> 1/2
    wc = setup_high.cyclotron_frequency
    omegas = np.array([0.021, 0.033, 0.052, 0.064, 0.077, 0.09])
    m_matrix = mixing_matrix()
    state, spectrum = synthetic_system(setup_high, omegas, m_matrix)
    tau = 3000.0 / wc
    nu = 10.0 * 0.021
    spec = GateSpec(target_pair=(0, 1), carrier_frequency=nu * wc, gate_time=tau,
                    envelope_width=tau / 9.0)
    theta = two_qubit_phase(spec, spectrum, state, setup_high).theta

    scales = derive_scales(setup_high)
    coef = -1.0 / (4.0 * scales.hbar_tilde * (nu**2 - omegas**2))
    s_mod = np.einsum("k,ka,kb->ab", coef, m_matrix, m_matrix)
    freqs = trap_frequencies(setup_high)
    dist = np.linalg.norm(state.positions[0, :2] - state.positions[1, :2])
    mag = scales.hbar_tilde * (freqs.omega_xy / wc) / dist
    times = np.linspace(0.0, tau * wc, 400001)
    env = np.exp(-(((times - tau * wc / 2) / (tau * wc / 9.0)) ** 2))
    convolution = mag**2 * trapezoid(env * env, times)
    theta_oracle = 8.0 * s_mod[0, 3] * convolution  # cos^2 already averaged
    assert abs(theta) == pytest.approx(abs(theta_oracle), rel=0.02)


def midgap_spec(eq_high, bands_high, setup_high, pair_high, ratio, sigma_fraction):
    from penninggate.bench import resolve_carrier

    tau_r = TWO_PI / (eq_high.rotation_frequency * setup_high.cyclotron_frequency)
    tau_g = ratio * tau_r
    return GateSpec(target_pair=pair_high,
                    carrier_frequency=resolve_carrier(bands_high) * setup_high.cyclotron_frequency,
                    gate_time=tau_g, envelope_width=sigma_fraction * tau_g)


@pytest.mark.parametrize("ratio", [0.006, 0.05, 0.2])
def test_closed_form_phase_kernel_matches_quadrature(ratio, eq_high, spectrum_high, bands_high,
                                                     setup_high, pair_high):
    # the closed form is the infinite-line value: beyond rounding it may
    # differ from the windowed quadrature only by its truncation bound, which
    # is below 1e-12 of max |G| at tau/9 and tau/8 but not at tau/7
    for fraction in (1 / 9, 1 / 8, 1 / 7):
        spec = midgap_spec(eq_high, bands_high, setup_high, pair_high, ratio, fraction)
        drive = gate._Drive.of(spec, setup_high)
        closed, bound = drive.gaussian_kernel(spectrum_high.frequencies)
        quad = drive.quadrature_kernel(spectrum_high.frequencies)
        scale = np.abs(quad).max()
        assert np.all(np.abs(closed - quad) <= 1e-12 * scale + bound)
        if fraction != 1 / 7:
            assert np.abs(closed - quad).max() <= 1e-12 * scale


def test_closed_form_phase_kernel_slow_carrier(setup_high):
    # nu sigma ~ 0.1: the exp(-nu^2 sigma^2 / 2) F(omega sigma / sqrt 2) term
    # carries half of G_k here, while it vanishes under a fast carrier
    wc = setup_high.cyclotron_frequency
    omegas = np.array([0.21, 0.33, 0.52, 0.64, 0.77, 0.9])
    state, spectrum = synthetic_system(setup_high, omegas, mixing_matrix())
    spec = GateSpec(target_pair=(0, 1), carrier_frequency=0.001 * wc, gate_time=900.0 / wc)
    drive = gate._Drive.of(spec, setup_high)
    closed, bound = drive.gaussian_kernel(omegas)
    quad = drive.quadrature_kernel(omegas)
    assert bound.max() <= 1e-12 * np.abs(quad).max()
    assert np.abs(closed - quad).max() <= 1e-12 * np.abs(quad).max()


@pytest.mark.parametrize("nu", [0.0, 3.0, 100.0])
def test_phase_kernel_long_gate_limit(nu):
    # G / int c^2 dt -> w / (w^2 - nu^2) as sigma grows, error ~ 1/sigma^2:
    # the limit in which G gives the orthogonal-mode coefficients of the
    # pair phase, adiabatic at nu = 0 and modulated for a fast carrier
    omega = 1.0
    errors = []
    for sigma in (1e2, 1e3, 1e4):
        drive = gate._Drive(nu=nu, tau=9.0 * sigma, center=4.5 * sigma, width=sigma,
                            samples=None)
        kernel, _ = drive.gaussian_kernel([omega])
        # int cos^2(nu s) exp(-2 s^2 / sigma^2) ds over the line
        norm = 0.5 * sigma * math.sqrt(math.pi / 2.0) * (1.0 + math.exp(-0.5 * (nu * sigma)**2))
        errors.append(abs(kernel[0] / norm * (omega**2 - nu**2) / omega - 1.0))
        assert errors[-1] <= 2.0 / (omega * sigma) ** 2
    assert all(fine <= coarse / 50.0 for coarse, fine in zip(errors, errors[1:]))


def test_phase_kernel_takes_closed_form_only_inside_its_bound(eq_high, spectrum_high,
                                                              bands_high, setup_high, pair_high):
    narrow = midgap_spec(eq_high, bands_high, setup_high, pair_high, 0.05, 1 / 9)
    closed, _ = gate._Drive.of(narrow, setup_high).gaussian_kernel(spectrum_high.frequencies)
    np.testing.assert_array_equal(gate.phase_kernel(narrow, spectrum_high, setup_high), closed)
    # sigma = tau/5 leaves ~1e-4 of the envelope outside the window
    wide = midgap_spec(eq_high, bands_high, setup_high, pair_high, 0.05, 1 / 5)
    drive = gate._Drive.of(wide, setup_high)
    _, bound = drive.gaussian_kernel(spectrum_high.frequencies)
    quad = drive.quadrature_kernel(spectrum_high.frequencies)
    assert bound.max() > 1e-10 * np.abs(quad).max()
    np.testing.assert_array_equal(gate.phase_kernel(wide, spectrum_high, setup_high), quad)


def test_calibration_scaling_and_recheck(gate_high, eq_high, spectrum_high, setup_high):
    theta1 = two_qubit_phase(gate_high, spectrum_high, eq_high, setup_high).theta
    amp = calibrate_amplitude(gate_high, spectrum_high, eq_high, setup_high)
    assert amp == pytest.approx(math.sqrt(math.pi / abs(theta1)), rel=1e-12)
    recomputed = two_qubit_phase(replace(gate_high, amplitude=amp), spectrum_high,
                                 eq_high, setup_high).theta
    assert abs(recomputed) == pytest.approx(math.pi, abs=1e-6)


def test_calibration_quarter_pi_means_amplitude_two():
    # theta(1) = pi/4 implies A = 2 by the quadratic scaling
    assert math.sqrt(math.pi / (math.pi / 4)) == pytest.approx(2.0, rel=1e-15)


def test_calibration_degenerate_drive_error(gate_high, eq_high, spectrum_high, setup_high):
    dead = ModeSpectrum(
        frequencies=spectrum_high.frequencies,
        symplectic=spectrum_high.symplectic,
        coefficients=np.zeros_like(spectrum_high.coefficients),
        hessian=spectrum_high.hessian,
        reference=spectrum_high.reference,
        regularized_mode=spectrum_high.regularized_mode,
    )
    with pytest.raises(ValueError, match="degenerate drive"):
        calibrate_amplitude(gate_high, dead, eq_high, setup_high)


def test_fidelity_is_one_without_residuals(spectrum_high, setup_high):
    zeros = np.zeros(spectrum_high.n_modes, dtype=complex)
    value, _ = fidelity(zeros, zeros, 100.0, spectrum_high, 1e-3, setup_high)
    assert value == 1.0


def test_fidelity_monotone_in_temperature(gate_high, eq_high, spectrum_high, setup_high):
    amp = calibrate_amplitude(gate_high, spectrum_high, eq_high, setup_high)
    temps = np.geomspace(1e-4, 1e-2, 12)
    rows = fidelity_curve(gate_high, spectrum_high, eq_high, setup_high, temps,
                          amplitude=amp)
    values = [f for _, f, _ in rows]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_fidelity_curve_rows_equal_a_per_temperature_loop(gate_high, eq_high, spectrum_high,
                                                          setup_high):
    import scipy.constants as const

    temps = [1e-9, *np.geomspace(1e-4, 1e-2, 20)]
    amp = calibrate_amplitude(gate_high, spectrum_high, eq_high, setup_high)
    rows = fidelity_curve(gate_high, spectrum_high, eq_high, setup_high, temps, amplitude=amp)
    r1, r2 = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                   amplitude=1.0)
    expected = []
    for temp in temps:
        # the one-temperature formula the array pass replaced
        x = const.hbar * spectrum_high.frequencies * setup_high.cyclotron_frequency / (
            const.k * temp)
        weights = 1.0 / -np.expm1(-x)
        weights[spectrum_high.regularized_mode] = 0.0
        exps = {label: float(amp**2 / 4.0 * np.sum(np.abs(r1 + sign * r2) ** 2 * weights))
                for label, sign in (("+", 1.0), ("-", -1.0))}
        branch = max(exps, key=lambda k: exps[k])
        expected.append((temp, math.exp(-exps[branch]), branch))
        assert fidelity(r1, r2, amp, spectrum_high, temp, setup_high) == expected[-1][1:]
    assert rows == expected
    # with one ion undriven both branches tie exactly, and a tie picks "+"
    ties = fidelity(r1, np.zeros_like(r1), amp, spectrum_high, temps, setup_high)
    assert [branch for _, branch in ties] == ["+"] * len(temps)


def test_fidelity_curve_builds_one_grid(gate_high, eq_high, spectrum_high, setup_high,
                                        monkeypatch):
    calls = []
    original = gate.grid_for_frequencies

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gate, "grid_for_frequencies", counted)
    fidelity_curve(gate_high, spectrum_high, eq_high, setup_high, [1e-4, 1e-3, 1e-2],
                   amplitude=1e4)
    assert len(calls) == 1


def test_fidelity_zero_temperature_limit(gate_high, eq_high, spectrum_high, setup_high):
    r1, r2 = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                   amplitude=1.0)
    amp = 1e4
    cold, branch = fidelity(r1, r2, amp, spectrum_high, 1e-9, setup_high)
    combos = {
        "+": np.abs(r1 + r2) ** 2,
        "-": np.abs(r1 - r2) ** 2,
    }
    skip = spectrum_high.regularized_mode
    for combo in combos.values():
        combo[skip] = 0.0
    expected = min(math.exp(-amp**2 / 4.0 * combo.sum()) for combo in combos.values())
    assert cold == pytest.approx(expected, rel=1e-9)


def test_fidelity_branch_is_worst_of_four_sign_configs(gate_high, eq_high, spectrum_high,
                                                       setup_high):
    r1, r2 = residual_displacement(gate_high, spectrum_high, eq_high, setup_high,
                                   amplitude=1.0)
    amp = calibrate_amplitude(gate_high, spectrum_high, eq_high, setup_high)
    value, _ = fidelity(r1, r2, amp, spectrum_high, 1e-3, setup_high)
    weights = thermal_weights(spectrum_high.frequencies, 1e-3, setup_high,
                              skip=spectrum_high.regularized_mode)
    configs = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            combo = np.abs(s1 * r1 + s2 * r2) ** 2
            configs.append(math.exp(-(amp**2 / 4.0) * float(np.sum(combo * weights))))
    assert value == pytest.approx(min(configs), rel=1e-12)


def test_fidelity_not_worse_deeper_in_gap(eq_high, spectrum_high, setup_high, pair_high):
    tau_r = TWO_PI / (eq_high.rotation_frequency * setup_high.cyclotron_frequency)
    tau_g = 6e-3 * tau_r
    last = None
    for nu_tilde in (0.3, 0.4, 0.51):
        spec = GateSpec(target_pair=pair_high,
                        carrier_frequency=nu_tilde * setup_high.cyclotron_frequency,
                        gate_time=tau_g)
        amp = calibrate_amplitude(spec, spectrum_high, eq_high, setup_high)
        rows = fidelity_curve(spec, spectrum_high, eq_high, setup_high, [1e-3],
                              amplitude=amp)
        infid = 1.0 - rows[0][1]
        if last is not None:
            assert infid <= last * (1 + 1e-9)
        last = infid


def test_laser_resources_scalings(setup_high):
    geom = LaserGeometry(waist=2e-6, beam_angle=math.pi / 2, detuning=TWO_PI * 1e11,
                         wavelength=313e-9)
    sep = 50e-6
    base = laser_resources(setup_high, geom, 100.0, sep)
    double_detuning = laser_resources(
        setup_high, replace(geom, detuning=2 * geom.detuning), 100.0, sep
    )
    assert double_detuning.power == pytest.approx(2 * base.power, rel=1e-12)
    double_amp = laser_resources(setup_high, geom, 200.0, sep)
    assert double_amp.power == pytest.approx(2 * base.power, rel=1e-12)
    angles = np.linspace(0.3, math.pi, 8)
    powers = [laser_resources(setup_high, replace(geom, beam_angle=g), 100.0, sep).power
              for g in angles]
    photons = [
        laser_resources(setup_high, replace(geom, beam_angle=g), 100.0, sep).scattered_photons
        for g in angles
    ]
    assert all(a < b for a, b in zip(powers, powers[1:]))
    assert all(a > b for a, b in zip(photons, photons[1:]))


@pytest.mark.parametrize("argument, amplitude, separation", [
    ("amplitude", 0.0, 50e-6), ("amplitude", -1.0, 50e-6),
    ("pair_separation", 100.0, 0.0), ("pair_separation", 100.0, -5e-5),
])
def test_laser_resources_rejects_non_positive_inputs(setup_high, argument, amplitude,
                                                     separation):
    geom = LaserGeometry(waist=2e-6, beam_angle=math.pi / 2, detuning=TWO_PI * 1e11,
                         wavelength=313e-9)
    with pytest.raises(ValueError, match=f"^{argument} must be positive"):
        laser_resources(setup_high, geom, amplitude, separation)


def test_laser_resources_hand_evaluated_fixture(setup_high):
    # independent hand evaluation with separately entered constants
    hbar = 1.054571817e-34
    c_light = 2.99792458e8
    eps0 = 8.8541878128e-12
    m_ion = 9.0121831 * 1.66053906660e-27
    e_charge = 1.602176634e-19
    gamma = TWO_PI * 19.64e6
    omega_xy = TWO_PI * 3.8024780955582114e6
    amplitude = 1000.0
    waist = 2e-6
    gamma_angle = math.pi / 2
    detuning = TWO_PI * 1e11
    lam = 313e-9
    sep = 50e-6
    kappa = TWO_PI / lam
    power_hand = (amplitude * omega_xy * detuning * hbar * c_light * kappa**2 * waist**2
                  * math.sin(gamma_angle / 2) ** 2 / (3 * gamma * sep))
    nphot_hand = (math.sqrt(2) * math.pi**3 * eps0 * c_light * m_ion**2 * waist**2
                  * omega_xy**4 * sep**3 * math.sin(gamma_angle / 2)
                  / (3 * e_charge**2 * lam * power_hand))
    geom = LaserGeometry(waist=waist, beam_angle=gamma_angle, detuning=detuning,
                         wavelength=lam)
    res = laser_resources(setup_high, geom, amplitude, sep)
    assert res.power == pytest.approx(power_hand, rel=1e-7)
    assert res.scattered_photons == pytest.approx(nphot_hand, rel=1e-7)
    assert res.scattering_fidelity == pytest.approx(math.exp(-nphot_hand), rel=1e-7)
    # frozen regression values for this fixture
    assert res.power == pytest.approx(2.066387508499267e-05, rel=1e-9)
    assert res.scattered_photons == pytest.approx(6.0288638240746355, rel=1e-9)


def test_sampled_profile_reproduces_analytic_carrier(gate_high, eq_high, spectrum_high,
                                                     setup_high):
    # the pulse-designer import contract: a uniformly sampled drive replaces
    # the analytic carrier; with the same waveform the phase must agree to
    # the interpolation error of the sampling grid
    wc = setup_high.cyclotron_frequency
    n = int(math.ceil(200 * gate_high.carrier_frequency * gate_high.gate_time / TWO_PI))
    times = np.linspace(0.0, gate_high.gate_time, n)
    arg = times - gate_high.center
    values = np.cos(gate_high.carrier_frequency / wc * arg * wc) * np.exp(
        -((arg / gate_high.width) ** 2)
    )
    sampled = replace(gate_high, profile=(times, values))
    theta_a = two_qubit_phase(gate_high, spectrum_high, eq_high, setup_high).theta
    theta_b = two_qubit_phase(sampled, spectrum_high, eq_high, setup_high).theta
    assert theta_b == pytest.approx(theta_a, rel=2e-3)


def test_sampled_profile_underresolved_rejected(gate_high, eq_high, spectrum_high,
                                                setup_high):
    times = np.linspace(0.0, gate_high.gate_time, 50)
    bad = replace(gate_high, profile=(times, np.ones_like(times)))
    with pytest.raises(ValueError, match="samples per modulation period"):
        two_qubit_phase(bad, spectrum_high, eq_high, setup_high)


def test_pulse_sequence_feeds_gate(eq_high, spectrum_high, setup_high, pair_high):
    # end-to-end: designed sin^2 pulse train as the gate force profile
    from penninggate.beams import Scheme, build_pulse_sequence

    nu = 0.51 * setup_high.cyclotron_frequency
    tau_r = TWO_PI / (eq_high.rotation_frequency * setup_high.cyclotron_frequency)
    tau_g = 6e-3 * tau_r
    n_periods = max(int(nu * tau_g / TWO_PI), 1)
    seq = build_pulse_sequence(Scheme.SAME_SIGMA_PLUS, nu=nu, n_periods=n_periods,
                               delta_1=-2e11, delta_2=3e11, b_rate=3e9)
    times, f0, _ = seq.sample_envelope(samples_per_period=80)
    values = f0 / np.abs(f0).max()
    spec = GateSpec(target_pair=pair_high, carrier_frequency=nu,
                    gate_time=float(times[-1]), profile=(times, values))
    theta = two_qubit_phase(spec, spectrum_high, eq_high, setup_high).theta
    assert math.isfinite(theta) and theta != 0.0
    res = residual_displacement(spec, spectrum_high, eq_high, setup_high, amplitude=1.0)
    assert np.all(np.isfinite(res))


def test_classical_trajectory_end_to_end_oracle(small_pair_setup, eq_pair):
    """Integrate the raw linearized dynamics d' = J (H d + F(t)) and compare
    the final mode amplitudes with the spectrum-route residuals.

    This exercises the whole chain (Hessian assembly, symplectic transform,
    drive projection, oscillatory quadrature) against nothing but the
    equations of motion.
    """
    from dataclasses import replace as dc_replace

    from penninggate import build_hessian, derive_scales, williamson
    from penninggate.crystal import CrystalState
    from penninggate.modes import symplectic_form

    # generic rotation frequency so the minimal coupling is active
    state = dc_replace(
        eq_pair,
        rotation_frequency=0.43,
        anisotropy=0.43 * 0.57 / 0.49 - 0.5,
    )
    # re-refine at the new rotation frequency to sit on its equilibrium
    from penninggate import newton_refine

    state = newton_refine(dc_replace(state, converged=False), grad_tol=1e-12)
    assert state.converged
    spectrum = williamson(build_hessian(state))
    setup = small_pair_setup
    wc = setup.cyclotron_frequency

    tau = 60.0 / wc
    spec = GateSpec(target_pair=(0, 1), carrier_frequency=0.9 * wc, gate_time=tau,
                    amplitude=1.0)
    scales = derive_scales(setup)

    n = state.n_ions
    h = spectrum.hessian
    jmat = symplectic_form(3 * n)
    unit = (state.positions[0, :2] - state.positions[1, :2])
    unit = unit / np.linalg.norm(unit)
    tf = trap_frequencies(setup)
    dist = np.linalg.norm(state.positions[0, :2] - state.positions[1, :2])
    prefac = scales.hbar_tilde * (tf.omega_xy / wc) / dist
    nu = spec.carrier_frequency / wc
    center = spec.center * wc
    width = spec.width * wc

    embed = np.zeros(6 * n)
    for j in (0, 1):
        embed[2 * (3 * j)] = unit[0]
        embed[2 * (3 * j + 1)] = unit[1]

    def rhs(s, d):
        carrier = prefac * math.cos(nu * (s - center)) * math.exp(
            -(((s - center) / width) ** 2)
        )
        return jmat @ (h @ d + carrier * embed)

    sol = solve_ivp(rhs, (0.0, tau * wc), np.zeros(6 * n), rtol=1e-11, atol=1e-14,
                    max_step=0.05 * TWO_PI / nu)
    d_end = sol.y[:, -1]

    # final complex mode amplitudes from the trajectory
    lam = -jmat @ spectrum.symplectic @ jmat @ d_end  # (S^-1)^T d
    a_end = (lam[0::2] + 1j * lam[1::2]) / math.sqrt(2.0 * scales.hbar_tilde)

    # spectrum route: a_k(tau) = -i e^{-i w tau} sqrt(w) (I_k^(0) + I_k^(1))
    res0, res1 = residual_displacement(spec, spectrum, state, setup, amplitude=1.0)
    omegas = spectrum.frequencies
    predicted = -1j * np.exp(-1j * omegas * tau * wc) * np.sqrt(omegas) * (res0 + res1)

    scale = np.abs(predicted).max()
    assert np.abs(a_end - predicted).max() < 1e-6 * scale
