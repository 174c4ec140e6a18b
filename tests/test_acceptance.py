"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report; every tolerance is pinned here.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.constants as const

from penninggate import (
    GateSpec,
    StabilityClass,
    TrapSetup,
    anisotropy,
    beta_critical,
    build_hessian,
    calibrate_amplitude,
    derive_scales,
    effective_radial_frequency,
    fidelity_curve,
    find_equilibrium,
    get_species,
    stability_class,
    trap_frequencies,
    two_qubit_phase,
    williamson,
)
from penninggate.beams import (
    ForceTerm,
    Line,
    Polarization,
    QubitState,
    Regime,
    Scheme,
    build_pulse_sequence,
    classify_regime,
    dipole_force,
    solve_intensity_ratio,
    verify_conditions,
)
from penninggate.bench import resolve_carrier, run_experiment, sweep
from penninggate.gate import _Drive
from penninggate.modes import symplectic_form

from phase_space import (
    equilibrium_momenta,
    orthogonal_modes,
    phase_space_hamiltonian,
    regularized_hessian,
)

TWO_PI = 2 * math.pi


def report(criterion, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_trap_numbers(setup_low, setup_high):
    low = trap_frequencies(setup_low)
    high = trap_frequencies(setup_high)
    nu_z_low = low.omega_z / TWO_PI / 1e3
    nu_xy_low = low.omega_xy / TWO_PI / 1e3
    nu_z_high = high.omega_z / TWO_PI / 1e3
    nu_xy_high = high.omega_xy / TWO_PI / 1e6
    ok = (
        abs(nu_z_low - 53.26) <= 0.01
        and abs(nu_xy_low - 5.38) <= 0.01
        and abs(nu_z_high - 152.16) <= 0.005 * 152.16
        and abs(nu_xy_high - 3.80) <= 0.005 * 3.80
    )
    report(1, ok, f"nu_z={nu_z_low:.3f} kHz, nu_xy={nu_xy_low:.3f} kHz, "
                  f"nu_z={nu_z_high:.2f} kHz, nu_xy={nu_xy_high:.4f} MHz")


def test_criterion_2_anisotropy_and_stability(setup_low, setup_high):
    beta_low = anisotropy(TWO_PI * 32.75e3, setup_low)
    beta_high = anisotropy(TWO_PI * 1.65e3, setup_high)
    beta_c = beta_critical(30)
    ok = (
        abs(beta_low - 3.4e-4) <= 0.1e-4
        and abs(beta_high - 4e-2) <= 0.3e-2
        and abs(beta_c - 0.1214) <= 5e-4
        and stability_class(beta_low, 30) is StabilityClass.PLANAR_2D
    )
    report(2, ok, f"beta={beta_low:.3e}, beta={beta_high:.3e}, beta_c={beta_c:.4f}")


def test_criterion_3_effective_radial_frequency(setup_high):
    nu_eff = effective_radial_frequency(TWO_PI * 1.65e3, setup_high) / TWO_PI / 1e3
    # the 1.65 kHz input is rounded; 31.47 kHz corresponds to nu_r ~ 1.652 kHz
    nu_eff_exact = effective_radial_frequency(TWO_PI * 1.652e3, setup_high) / TWO_PI / 1e3
    ok = abs(nu_eff - 31.47) <= 1.0 and abs(nu_eff_exact - 31.47) <= 0.05
    report(3, ok, f"nu_xy_eff={nu_eff:.2f} kHz (rounded inputs), "
                  f"{nu_eff_exact:.3f} kHz at nu_r=1.652 kHz")


def test_criterion_4_equilibrium_pipeline(setup_low, eq_low_p0):
    grid = [0.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 10000.0]
    ratios = []
    for p in grid:
        state = find_equilibrium(setup_low, p, initial_positions=eq_low_p0.positions)
        ratios.append(state.rotation_frequency)
    at_4000 = ratios[grid.index(4000.0)]
    decreasing = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    minimum = min(ratios)
    ok = (
        ratios[0] == 0.5
        and decreasing
        and abs(at_4000 - 0.4305) <= 0.005
        and minimum >= grid_min_bound(setup_low)
        and abs(at_4000 - minimum) <= 0.005
    )
    report(4, ok, f"omega_r/omega_c: P=0 -> {ratios[0]}, P=4e3 -> {at_4000:.4f}, "
                  f"sweep minimum {minimum:.4f} (flat tail near the magnetron bound)")


def grid_min_bound(setup):
    freqs = trap_frequencies(setup)
    return freqs.omega_m / setup.cyclotron_frequency


def test_criterion_5_symplectic_correctness(beryllium, setup_high, spectrum_high,
                                            setup_low, eq_low_p0):
    jmat = symplectic_form(3 * spectrum_high.reference.n_ions)
    s = spectrum_high.symplectic
    resid_j = np.abs(s @ jmat @ s.T - jmat).max()

    h = regularized_hessian(spectrum_high.reference)
    oracle = np.sort(np.abs(np.linalg.eigvals(jmat @ h).imag))[::2]
    resid_oracle = np.abs(np.sort(spectrum_high.frequencies) - oracle).max()

    # finite-difference check on a small planar crystal at a generic rotation
    setup5 = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 5)
    state5 = find_equilibrium(setup5, 150.0, initial_positions=_pentagon())
    qh = build_hessian(state5)
    fd = _finite_difference(state5)
    resid_fd = np.abs(qh.matrix - fd).max()

    # every mode but the rotation: the regularized mode of the symplectic
    # path, and the zero mode (the lowest) of the unregularized oracle
    spec0 = williamson(build_hessian(eq_low_p0))
    ortho, _ = orthogonal_modes(eq_low_p0)
    resid_cross = np.abs(np.delete(spec0.frequencies, spec0.regularized_mode) - ortho[1:]).max()

    ok = resid_j < 1e-10 and resid_oracle < 1e-10 and resid_fd < 1e-6 and resid_cross < 1e-8
    report(5, ok, f"|SJS^T-J|={resid_j:.1e}, |w-oracle|={resid_oracle:.1e}, "
                  f"|H-FD|={resid_fd:.1e}, |symplectic-orthogonal|={resid_cross:.1e}")


def _pentagon():
    angles = TWO_PI * np.arange(5) / 5.0
    out = np.zeros((5, 3))
    out[:, 0] = 8.0 * np.cos(angles)
    out[:, 1] = 8.0 * np.sin(angles)
    return out


def _finite_difference(state, h=5e-4):
    n = state.n_ions
    d0 = np.zeros(6 * n)
    d0[0::2] = state.positions.reshape(-1)
    d0[1::2] = equilibrium_momenta(state.positions, state.rotation_frequency).reshape(-1)

    def value(d):
        return phase_space_hamiltonian(
            d[0::2].reshape(n, 3), d[1::2].reshape(n, 3),
            state.rotation_frequency, state.axial_ratio,
        )

    out = np.zeros((6 * n, 6 * n))
    for i in range(6 * n):
        for j in range(i, 6 * n):
            pp = d0.copy(); pp[i] += h; pp[j] += h
            pm = d0.copy(); pm[i] += h; pm[j] -= h
            mp = d0.copy(); mp[i] -= h; mp[j] += h
            mm = d0.copy(); mm[i] -= h; mm[j] -= h
            out[i, j] = out[j, i] = (
                value(pp) - value(pm) - value(mp) + value(mm)
            ) / (4 * h * h)
    return out


def test_criterion_6_form_factor_claims(setup_high, spectrum_fig4):
    # the orthogonal-mode coefficients as long-gate limits of the phase
    # kernel: coef = G / (2 hbar~ w int exp(-2 (t - t_c)^2 / sigma^2) dt)
    hbar_tilde = derive_scales(setup_high).hbar_tilde
    omega, nu, sigma = 1.0, 100.0, 1e4

    def coefficient(carrier):
        drive = _Drive(nu=carrier, tau=9.0 * sigma, center=4.5 * sigma, width=sigma,
                       samples=None)
        kernel, _ = drive.gaussian_kernel([omega])
        return kernel[0] / (2.0 * hbar_tilde * omega * sigma * math.sqrt(math.pi / 2.0))

    modulated, adiabatic = coefficient(nu), coefficient(0.0)
    leading = -1.0 / (4.0 * hbar_tilde * nu**2)
    ratio = (modulated - leading) / adiabatic
    target = -((omega / nu) ** 4) / 2.0
    resid_ratio = abs(ratio - target) / abs(target)

    # the leading nu^-2 term cancels between distinct ions at any alpha_r:
    # sum_k w_k Re(A_ka A_kb*) = delta_ab, here at the fig4 alpha_r << 1/2
    a = spectrum_fig4.position_block
    gram = np.real((spectrum_fig4.frequencies[:, None] * a).T @ a.conj())
    off = np.abs(gram - np.eye(len(gram))).max()

    ok = resid_ratio < 1e-3 and off < 1e-12
    report(6, ok, f"modulated/adiabatic ratio dev={resid_ratio:.2e} at nu=100w from G_k, "
                  f"leading-term cancellation={off:.1e} at alpha_r="
                  f"{spectrum_fig4.reference.rotation_frequency:.2e}")


def test_criterion_7_gate_fidelity(setup_high, eq_high, spectrum_high, bands_high,
                                   pair_high):
    tau_r = TWO_PI / (eq_high.rotation_frequency * setup_high.cyclotron_frequency)
    tau_g = 6e-3 * tau_r
    nu_mid = resolve_carrier(bands_high) * setup_high.cyclotron_frequency
    spec = GateSpec(target_pair=pair_high, carrier_frequency=nu_mid, gate_time=tau_g)
    amp = calibrate_amplitude(spec, spectrum_high, eq_high, setup_high)
    theta = two_qubit_phase(replace(spec, amplitude=amp), spectrum_high, eq_high,
                            setup_high).theta
    temps = np.geomspace(1e-4, 1e-2, 20)
    rows = fidelity_curve(spec, spectrum_high, eq_high, setup_high, temps, amplitude=amp)
    infidelities = [1.0 - f for _, f, _ in rows]
    monotone = all(b >= a - 1e-15 for a, b in zip(infidelities, infidelities[1:]))

    # carrier tuning inside the widest gap for the low-temperature target
    lo, hi, *_ = max(bands_high.gaps, key=lambda g: g[1] - g[0])
    span = hi - lo

    def evaluate(nu_tilde):
        trial = GateSpec(target_pair=pair_high,
                         carrier_frequency=nu_tilde * setup_high.cyclotron_frequency,
                         gate_time=tau_g)
        amp_t = calibrate_amplitude(trial, spectrum_high, eq_high, setup_high)
        frows = fidelity_curve(trial, spectrum_high, eq_high, setup_high, [1e-4],
                               amplitude=amp_t)
        return 1.0 - frows[0][1]

    tuned = min(np.linspace(lo + 0.2 * span, hi - 0.2 * span, 9), key=evaluate)
    tuned_infidelity = evaluate(tuned)

    ok = (
        max(infidelities) < 1e-3
        and infidelities[0] < 1e-4
        and tuned_infidelity < 1e-4
        and monotone
        and abs(abs(theta) - math.pi) < 1e-6
        and abs(tau_g / tau_r - 6e-3) < 1e-12
    )
    report(7, ok, f"mid-gap nu={nu_mid / TWO_PI / 1e6:.3f} MHz, worst 1-F={max(infidelities):.2e}, "
                  f"low-T 1-F={infidelities[0]:.2e}, tuned 1-F={tuned_infidelity:.2e}, "
                  f"|theta|-pi={abs(theta) - math.pi:.1e}")


_TABLE_ORACLE = {
    (Polarization.SIGMA_MINUS, Line.D1, QubitState.ZERO): lambda d, b: 0.0,
    (Polarization.SIGMA_MINUS, Line.D1, QubitState.ONE): lambda d, b: -1.0 / (2 * (3 * d + 4 * b)),
    (Polarization.SIGMA_MINUS, Line.D2, QubitState.ZERO): lambda d, b: -1.0 / (4 * (d + b)),
    (Polarization.SIGMA_MINUS, Line.D2, QubitState.ONE): lambda d, b: -1.0 / (4 * (3 * d + 5 * b)),
    (Polarization.PI, Line.D1, QubitState.ZERO): lambda d, b: 1.0 / (4 * (2 * b - 3 * d)),
    (Polarization.PI, Line.D1, QubitState.ONE): lambda d, b: -1.0 / (4 * (3 * d + 2 * b)),
    (Polarization.PI, Line.D2, QubitState.ZERO): lambda d, b: 1.0 / (2 * (b - 3 * d)),
    (Polarization.PI, Line.D2, QubitState.ONE): lambda d, b: -1.0 / (2 * (3 * d + b)),
    (Polarization.SIGMA_PLUS, Line.D1, QubitState.ZERO): lambda d, b: 1.0 / (2 * (4 * b - 3 * d)),
    (Polarization.SIGMA_PLUS, Line.D1, QubitState.ONE): lambda d, b: 0.0,
    (Polarization.SIGMA_PLUS, Line.D2, QubitState.ZERO): lambda d, b: 1.0 / (4 * (5 * b - 3 * d)),
    (Polarization.SIGMA_PLUS, Line.D2, QubitState.ONE): lambda d, b: 1.0 / (4 * (b - d)),
}


def test_criterion_8_force_design_algebra():
    rng = np.random.default_rng(123)
    worst_entry = 0.0
    for _ in range(50):
        d1 = -rng.uniform(1e10, 5e11)
        d2 = rng.uniform(1e10, 5e11)
        b = rng.uniform(1e8, 5e9)
        for (pol, line, state), oracle in _TABLE_ORACLE.items():
            delta = d1 if line is Line.D1 else d2
            got = dipole_force(ForceTerm(line, pol, state, delta, 1.0, b))
            want = oracle(delta, b) / const.hbar
            scale = max(abs(want), 1e-30)
            worst_entry = max(worst_entry, abs(got - want) / scale)

    worst_balance = 0.0
    for _ in range(1000):
        d1 = -rng.uniform(1e10, 5e11)
        d2 = rng.uniform(1e10, 5e11)
        b = rng.uniform(1e8, 5e9)
        ratio = solve_intensity_ratio(Scheme.SAME_SIGMA_PLUS, d1, d2, b)
        # balance equation: X2/(d2-B) + X2/(3 d2-5B) + 2 X1/(3 d1-4B) = 0 at X2 = 1
        balance = 1.0 / (d2 - b) + 1.0 / (3 * d2 - 5 * b) + 2.0 * ratio.value / (3 * d1 - 4 * b)
        scale = abs(1.0 / (d2 - b))
        worst_balance = max(worst_balance, abs(balance) / scale)

    seq = build_pulse_sequence(Scheme.SAME_SIGMA_PLUS, nu=TWO_PI * 1e6, n_periods=6,
                               delta_1=-2e11, delta_2=3e11, b_rate=3e9)
    cond = verify_conditions(seq)

    regimes = (
        classify_regime(get_species("Be+"), 4.5) is Regime.ZEEMAN
        and classify_regime(get_species("Mg+"), 12.0) is Regime.ZEEMAN
        and classify_regime(get_species("Be+"), 30.0) is Regime.PASCHEN_BACK
    )
    ok = (
        worst_entry < 1e-12
        and worst_balance < 1e-12
        and cond.opposition_residual < 1e-8
        and max(cond.mean_residual.values()) < 1e-8
        and regimes
    )
    report(8, ok, f"table entries dev={worst_entry:.1e}, balance residual={worst_balance:.1e}, "
                  f"pulse residuals=({cond.opposition_residual:.1e}, "
                  f"{max(cond.mean_residual.values()):.1e}), regimes ok={regimes}")


def test_criterion_9_determinism(tmp_path):
    from penninggate import ExperimentConfig

    config = ExperimentConfig(
        species="Be+", nu_c_hz=7.608e6, alpha_z=0.02, n_ions=6, p_theta=5000.0,
        tau_ratio=0.006, temperatures_k=(1e-4, 1e-3), anneal_cycles=6,
        anneal_steps=600, seed=12, out_dir=str(tmp_path / "a"),
    )
    art_a = run_experiment(config)
    art_b = run_experiment(replace(config, out_dir=str(tmp_path / "b")))
    same_bytes = all(
        (art_a.out_dir / name).read_bytes() == (art_b.out_dir / name).read_bytes()
        for name in ("equilibrium.txt", "spectrum.csv", "fidelity.csv", "phase.json")
    )
    # a sweep whose gates all run, so the repeat compares gate numbers
    grid = [0.006, 0.2]
    first = sweep(config, "tau_ratio", grid)
    again = sweep(config, "tau_ratio", grid)
    gates_ran = all(line.endswith(",ok") for line in first.splitlines()[1:])
    ok = same_bytes and gates_ran and first == again
    report(9, ok, f"byte-identical artifacts={same_bytes}, gates ran={gates_ran}, "
                  f"repeatable sweep={first == again}")
