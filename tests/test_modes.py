"""Phase-space Hessian, Williamson decomposition, and band classification."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import expm, hessenberg

from penninggate import (
    AnnealSchedule,
    TrapSetup,
    modes,
    build_hessian,
    classify_bands,
    find_equilibrium,
    trap_frequencies,
    williamson,
)
from penninggate.crystal import effective_potential_hessian, hex_lattice
from penninggate.modes import (
    QuadraticHamiltonian,
    _decoupled_blocks,
    _skew_gram,
    _times_j,
    minimal_coupling_rate,
    symplectic_form,
)
from penninggate.scales import StabilityClass, get_species, stability_class

from phase_space import (
    equilibrium_momenta,
    orthogonal_modes,
    phase_space_hamiltonian,
    regularized_hessian,
)

TWO_PI = 2 * math.pi


def finite_difference_hessian(state, h=5e-4):
    """Central differences of the full dimensionless Hamiltonian."""
    n = state.n_ions
    d0 = np.zeros(6 * n)
    d0[0::2] = state.positions.reshape(-1)
    d0[1::2] = equilibrium_momenta(state.positions, state.rotation_frequency).reshape(-1)

    def value(d):
        q = d[0::2].reshape(n, 3)
        p = d[1::2].reshape(n, 3)
        return phase_space_hamiltonian(q, p, state.rotation_frequency, state.axial_ratio)

    out = np.zeros((6 * n, 6 * n))
    for i in range(6 * n):
        for j in range(i, 6 * n):
            pp = d0.copy(); pp[i] += h; pp[j] += h
            pm = d0.copy(); pm[i] += h; pm[j] -= h
            mp = d0.copy(); mp[i] -= h; mp[j] += h
            mm = d0.copy(); mm[i] -= h; mm[j] -= h
            val = (value(pp) - value(pm) - value(mp) + value(mm)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


@pytest.fixture(scope="module")
def eq_five(beryllium):
    # a small planar crystal at a generic rotation frequency
    setup = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 5)
    return find_equilibrium(setup, 150.0, AnnealSchedule(seed=13))


def test_momentum_diagonal_is_unity(eq_five):
    h = build_hessian(eq_five).matrix
    mom = [2 * m + 1 for m in range(3 * eq_five.n_ions)]
    np.testing.assert_array_equal(np.diag(h)[mom], np.ones(3 * eq_five.n_ions))


def test_single_ion_hessian_blocks(beryllium):
    from dataclasses import replace

    from penninggate import beta_from_ratio

    setup = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 1)
    state = find_equilibrium(setup, 0.0, initial_positions=np.zeros((1, 3)))
    # examine a rotation frequency away from the special frame
    state = replace(state, rotation_frequency=0.43,
                    anisotropy=beta_from_ratio(0.43, 0.7))
    h = build_hessian(state).matrix
    fd = finite_difference_hessian(state)
    assert np.abs(h - fd).max() < 1e-6
    # trap curvatures on the position diagonal, coupling rate on the cross terms
    alpha_z = state.axial_ratio
    assert h[0, 0] == pytest.approx((1 - 2 * alpha_z**2) / 4.0, rel=1e-12)
    assert h[4, 4] == pytest.approx(alpha_z**2, rel=1e-12)
    assert h[1, 2] == pytest.approx(0.5 - 0.43, rel=1e-12)
    assert h[3, 0] == pytest.approx(-(0.5 - 0.43), rel=1e-12)


def test_hessian_matches_finite_differences(eq_five):
    qh = build_hessian(eq_five)
    fd = finite_difference_hessian(eq_five)
    assert np.abs(qh.matrix - fd).max() < 1e-6


def loop_hessian(state):
    """Per-ion loop assembly of the phase-space Hessian, kept as the
    reference for the vectorized build_hessian."""
    n = state.n_ions
    omega = minimal_coupling_rate(state.rotation_frequency)
    qq = effective_potential_hessian(state.positions, state.rotation_frequency,
                                     state.axial_ratio)
    for k in range(n):
        qq[3 * k, 3 * k] += omega**2
        qq[3 * k + 1, 3 * k + 1] += omega**2
    h = np.zeros((6 * n, 6 * n))
    pos = [2 * m for m in range(3 * n)]
    mom = [2 * m + 1 for m in range(3 * n)]
    h[np.ix_(pos, pos)] = qq
    h[np.ix_(mom, mom)] = np.eye(3 * n)
    for k in range(n):
        x, px, y, py = 6 * k, 6 * k + 1, 6 * k + 2, 6 * k + 3
        h[px, y] += omega
        h[y, px] += omega
        h[py, x] -= omega
        h[x, py] -= omega
    return h


def test_hessian_bit_identical_to_loop_reference(eq_five, eq_high):
    for state in (eq_five, eq_high):
        assert np.array_equal(build_hessian(state).matrix, loop_hessian(state))


def test_hessian_rejects_unconverged(eq_five):
    from dataclasses import replace

    with pytest.raises(ValueError):
        build_hessian(replace(eq_five, converged=False))


def test_williamson_single_oscillator():
    h = np.diag([4.0, 1.0])
    spec = williamson(QuadraticHamiltonian(matrix=h, reference=None))
    assert spec.frequencies == pytest.approx([2.0], rel=1e-12)


def test_williamson_random_positive_definite_vs_eig_oracle():
    rng = np.random.default_rng(8)
    jmat = symplectic_form(3)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 0.5 * np.eye(6)
        spec = williamson(QuadraticHamiltonian(matrix=h, reference=None))
        oracle = np.sort(np.abs(np.linalg.eigvals(jmat @ h).imag))[::2]
        assert np.abs(np.sort(spec.frequencies) - oracle).max() < 1e-10
        resid = np.abs(spec.symplectic @ jmat @ spec.symplectic.T - jmat).max()
        assert resid < 1e-10


def test_williamson_rejects_indefinite():
    h = np.diag([4.0, 1.0, -0.5, 1.0])
    with pytest.raises(ValueError, match="positive definite"):
        williamson(QuadraticHamiltonian(matrix=h, reference=None))


def test_williamson_names_the_indefinite_axial_block(eq_high):
    from dataclasses import replace

    # compressed to half size the Coulomb push overwhelms the axial trap
    squeezed = replace(eq_high, positions=0.5 * eq_high.positions)
    qh = build_hessian(squeezed)
    axial = np.repeat(np.arange(3 * eq_high.n_ions) % 3 == 2, 2)
    lowest = np.linalg.eigvalsh(qh.matrix[np.ix_(axial, axial)])[0]
    assert lowest < 0.0
    with pytest.raises(ValueError, match="positive definite") as info:
        williamson(qh)
    match = re.search(r"axial block has lowest eigenvalue (\S+)", str(info.value))
    assert match is not None
    assert float(match.group(1)) == pytest.approx(lowest, rel=1e-3)


def jh_oracle(spectrum):
    """Independent frequencies: sorted |Im eig(J H)| of the regularized
    Hessian, one of each +/- pair."""
    jmat = symplectic_form(3 * spectrum.reference.n_ions)
    h = regularized_hessian(spectrum.reference)
    return np.sort(np.abs(np.linalg.eigvals(jmat @ h).imag))[::2]


@pytest.fixture(scope="module")
def spectrum_n100():
    # warm-started planar N = 100 crystal: a 5 % jittered hexagonal lattice
    # sized to P_theta, at beta ~ 0.035 below beta_c = 0.0665
    setup = TrapSetup(get_species("Be+").species, TWO_PI * 7.608e6, 0.02, 100)
    p_theta = 1.2e6
    lattice = hex_lattice(100)
    spacing = math.sqrt(2.0 * p_theta / float(np.sum(lattice**2)))
    start = np.zeros((100, 3))
    start[:, :2] = spacing * lattice
    start += 0.05 * spacing * np.random.default_rng(7).standard_normal((100, 3))
    state = find_equilibrium(setup, p_theta, initial_positions=start)
    assert stability_class(state.anisotropy, 100) is StabilityClass.PLANAR_2D
    return williamson(build_hessian(state))


def test_planar_n100_matches_jh_oracle(spectrum_n100):
    assert np.abs(np.sort(spectrum_n100.frequencies) - jh_oracle(spectrum_n100)).max() < 1e-10


def test_planar_symplectic_has_no_axial_inplane_entries(spectrum_high, spectrum_n100):
    for spec in (spectrum_high, spectrum_n100):
        n = spec.reference.n_ions
        axial_cols = np.repeat(np.arange(3 * n) % 3 == 2, 2)
        s = spec.symplectic
        touches_axial = np.any(s[:, axial_cols] != 0.0, axis=1)
        axial_modes = touches_axial[0::2] | touches_axial[1::2]
        axial_rows = np.repeat(axial_modes, 2)
        assert axial_modes.sum() == n
        assert not np.any(s[np.ix_(axial_rows, ~axial_cols)])
        assert not np.any(s[np.ix_(~axial_rows, axial_cols)])


def test_axial_block_modes_are_the_axial_band(spectrum_high, bands_high):
    axial_cols = np.repeat(np.arange(3 * spectrum_high.reference.n_ions) % 3 == 2, 2)
    rows = np.any(spectrum_high.symplectic[:, axial_cols] != 0.0, axis=1)
    labels = np.array(bands_high.labels)
    assert np.array_equal(rows[0::2], labels == "axial")


@pytest.fixture(scope="module")
def spectrum_3d(beryllium):
    # N = 8 at P_theta = 2000 of the fig4 trap: a 3D crystal at alpha_r ~ 4e-4
    setup = TrapSetup(beryllium, TWO_PI * 7.608e6, 0.02, 8)
    return williamson(build_hessian(find_equilibrium(setup, 2000.0, AnnealSchedule(seed=3))))


def test_three_dimensional_crystal_takes_the_full_block(spectrum_3d):
    spec, state = spectrum_3d, spectrum_3d.reference
    assert stability_class(state.anisotropy, 8) is StabilityClass.CONFINED_3D
    assert np.abs(state.positions[:, 2]).max() > 1.0
    assert [name for name, _ in _decoupled_blocks(regularized_hessian(state))] == ["full"]
    jmat = symplectic_form(3 * state.n_ions)
    assert np.abs(spec.symplectic @ jmat @ spec.symplectic.T - jmat).max() < 1e-10
    assert np.abs(np.sort(spec.frequencies) - jh_oracle(spec)).max() < 1e-10


def test_williamson_reconstruction_and_diagonality(spectrum_high):
    jmat = symplectic_form(3 * spectrum_high.reference.n_ions)
    s = spectrum_high.symplectic
    h = regularized_hessian(spectrum_high.reference)
    w = np.diag(np.repeat(spectrum_high.frequencies, 2))
    assert np.abs(s @ h @ s.T - w).max() < 1e-9
    s_inv = -jmat @ s.T @ jmat
    recon = s_inv @ w @ s_inv.T
    scale = np.abs(h).max()
    assert np.abs(recon - h).max() < 1e-9 * scale


def test_williamson_invariant_under_symplectic_shear():
    rng = np.random.default_rng(5)
    jmat = symplectic_form(3)
    a = rng.standard_normal((6, 6))
    h = a @ a.T + 0.8 * np.eye(6)
    base = williamson(QuadraticHamiltonian(matrix=h, reference=None))
    for _ in range(5):
        sym = rng.standard_normal((6, 6))
        sym = 0.15 * (sym + sym.T)
        t = expm(jmat @ sym)  # symplectic by construction
        sheared = t @ h @ t.T
        spec = williamson(QuadraticHamiltonian(matrix=sheared, reference=None))
        assert np.abs(np.sort(spec.frequencies) - np.sort(base.frequencies)).max() < 1e-9


def assert_canonical(spec, h, tol):
    """S J S^T = J and S H S^T = diag(w_1, w_1, ..., w_n, w_n) to tol."""
    s = spec.symplectic
    jmat = symplectic_form(len(h) // 2)
    assert np.abs(s @ jmat @ s.T - jmat).max() < tol
    assert np.abs(s @ h @ s.T - np.diag(np.repeat(spec.frequencies, 2))).max() < tol


def test_williamson_block_whose_tridiagonal_splits():
    # two uncoupled oscillators with q-p cross terms in one 4x4 block: K is
    # block diagonal, so its tridiagonal form has an exactly zero subdiagonal
    h = np.zeros((4, 4))
    h[:2, :2] = [[4.0, 0.5], [0.5, 1.0]]
    h[2:, 2:] = [[9.0, -1.0], [-1.0, 2.0]]
    sub = np.diagonal(hessenberg(_skew_gram(np.linalg.cholesky(h))), -1)
    assert sub[1] == 0.0 and np.all(sub[[0, 2]] != 0.0)
    spec = williamson(QuadraticHamiltonian(matrix=h, reference=None))
    assert spec.frequencies == pytest.approx([math.sqrt(3.75), math.sqrt(17.0)], rel=1e-14)
    assert_canonical(spec, h, 1e-12)


@pytest.mark.parametrize("sheared", [False, True])
def test_williamson_fully_degenerate_block(sheared):
    # H = I: every frequency is 1; the sheared form T T^T (T symplectic) has
    # the same spectrum without K being block diagonal
    h = np.eye(10)
    if sheared:
        sym = np.random.default_rng(4).standard_normal((10, 10))
        t = expm(symplectic_form(5) @ (0.2 * (sym + sym.T)))
        h = t @ t.T
    spec = williamson(QuadraticHamiltonian(matrix=h, reference=None))
    assert np.abs(spec.frequencies - 1.0).max() < 1e-12
    assert_canonical(spec, h, 1e-12)


def complex_eigh_block(chol, name):
    """The previous Williamson core: one complex Hermitian eigh of i L^T J L."""
    kmat = _times_j(chol.T) @ chol
    kmat = 0.5 * (kmat - kmat.T)
    half = len(chol) // 2
    kvals, kvecs = np.linalg.eigh(1j * kmat)
    freqs, vecs = kvals[half:], kvecs[:, half:]
    o_matrix = np.empty_like(chol)
    o_matrix[:, 0::2] = math.sqrt(2.0) * vecs.real
    o_matrix[:, 1::2] = -math.sqrt(2.0) * vecs.imag
    s_matrix = np.repeat(np.sqrt(freqs), 2)[:, None] * np.linalg.solve(chol.T, o_matrix).T
    defect = _times_j(s_matrix) @ s_matrix.T - symplectic_form(half)
    return freqs, s_matrix + 0.5 * _times_j(defect) @ s_matrix


@pytest.mark.parametrize("name", ["spectrum_high", "spectrum_n100"])
def test_real_core_matches_complex_eigh_core(name, request, monkeypatch):
    spec = request.getfixturevalue(name)
    monkeypatch.setattr(modes, "_williamson_block", complex_eigh_block)
    reference = williamson(build_hessian(spec.reference))
    assert spec.regularized_mode == reference.regularized_mode
    physical = np.arange(spec.n_modes) != spec.regularized_mode
    assert np.abs(spec.frequencies - reference.frequencies)[physical].max() <= 1e-14


@pytest.mark.parametrize("name", ["spectrum_high", "spectrum_n100"])
def test_symplectic_polish_reaches_roundoff(name, request):
    # without the first-order polish the N = 100 in-plane block misses
    # S J S^T = J by about 3e-11, which the 1e-10 check inside the core passes
    spec = request.getfixturevalue(name)
    jmat = symplectic_form(3 * spec.reference.n_ions)
    assert np.abs(spec.symplectic @ jmat @ spec.symplectic.T - jmat).max() <= 1e-13


def test_williamson_holds_at_most_five_hessians(spectrum_fig4):
    # S and the position block are all a spectrum keeps; the solve forms no
    # other (6N)^2 array, so its traced peak stays under five Hessians
    import tracemalloc

    qh = build_hessian(spectrum_fig4.reference)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        williamson(qh)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * qh.matrix.nbytes


@pytest.mark.parametrize("name", ["spectrum_fig4", "spectrum_3d"])
def test_position_block_is_the_position_columns_of_s(name, request):
    spec = request.getfixturevalue(name)
    s = spec.symplectic
    assert np.array_equal(spec.position_block, s[0::2, 0::2] + 1j * s[1::2, 0::2])


def test_coefficient_canonicity(spectrum_high):
    # column relations of S J S^T = J expressed through A = S_even + i S_odd:
    # position-position sums vanish, position-momentum pairs give the
    # canonical +/-1
    s = spectrum_high.symplectic
    a = s[0::2] + 1j * s[1::2]
    n = spectrum_high.reference.n_ions
    rng = np.random.default_rng(3)
    pos = rng.choice(3 * n, size=6, replace=False)
    for i in pos[:3]:
        for j in pos[3:]:
            cross = np.sum(np.imag(np.conj(a[:, 2 * i]) * a[:, 2 * j]))
            assert abs(cross) < 1e-10
    for m in pos:
        canon = np.sum(np.imag(np.conj(a[:, 2 * m]) * a[:, 2 * m + 1]))
        assert canon == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", ["spectrum_fig4", "spectrum_3d"])
def test_symplectic_leading_term_identity(name, request):
    # sum_k w_k Re(A_ka A_kb*) = (S^T D S)_(q_a q_b) = (J^T H J)_(q_a q_b)
    # = (H_pp)_ab = delta_ab for every alpha_r: the identity that cancels the
    # nu^-2 term of the pair phase between distinct ions
    spec = request.getfixturevalue(name)
    assert spec.reference.rotation_frequency < 1e-3  # far from the special frame 1/2
    a = spec.position_block
    gram = np.real((spec.frequencies[:, None] * a).T @ a.conj())
    assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12


def test_cross_path_spectra_agree_at_special_frame(setup_low, eq_low_p0):
    spec = williamson(build_hessian(eq_low_p0))
    ortho, m_matrix = orthogonal_modes(eq_low_p0)
    assert np.abs(m_matrix @ m_matrix.T - np.eye(len(m_matrix))).max() < 1e-12
    # every mode but the rotation: williamson's regularized mode, and the
    # oracle's zero mode, its lowest
    physical = np.delete(spec.frequencies, spec.regularized_mode)
    assert np.abs(physical - ortho[1:]).max() < 1e-8


def test_orthogonal_modes_single_ion(beryllium):
    # williamson at alpha_r = 1/2 reproduces the orthogonal-mode closed form
    setup = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 1)
    state = find_equilibrium(setup, 0.0, initial_positions=np.zeros((1, 3)))
    freqs = williamson(build_hessian(state)).frequencies
    tf = trap_frequencies(setup)
    wc = setup.cyclotron_frequency
    expected = np.sort([tf.omega_xy / wc, tf.omega_xy / wc, tf.omega_z / wc])
    assert np.abs(np.sort(freqs) - expected).max() < 1e-12


def test_orthogonal_modes_pair_com_mode(eq_pair, small_pair_setup):
    # williamson at alpha_r = 1/2 has the orthogonal-mode centre-of-mass mode
    freqs = williamson(build_hessian(eq_pair)).frequencies
    tf = trap_frequencies(small_pair_setup)
    target = tf.omega_xy / small_pair_setup.cyclotron_frequency
    assert np.abs(freqs - target).min() < 1e-9


def test_band_gap_contains_quoted_carrier(beryllium, eq_low_p4000):
    # the slow-rotation crystal scaled to the experiment cyclotron frequency
    setup = TrapSetup(beryllium, TWO_PI * 7.608e6, 0.7, 30)
    state = find_equilibrium(setup, 4000.0, initial_positions=eq_low_p4000.positions)
    spec = williamson(build_hessian(state))
    bands = classify_bands(spec, setup)
    nu_tilde = 2.4e6 / 7.608e6
    assert any(lo < nu_tilde < hi for lo, hi, *_ in bands.gaps)


def test_band_gap_between_axial_and_radial(bands_high):
    names = {(a, b) for *_, a, b in bands_high.gaps}
    assert ("axial", "cyclotron") in names


def test_bands_single_ion(beryllium):
    from dataclasses import replace

    from penninggate import beta_from_ratio

    setup = TrapSetup(beryllium, TWO_PI * 76.08e3, 0.7, 1)
    state = find_equilibrium(setup, 0.0, initial_positions=np.zeros((1, 3)))
    state = replace(state, rotation_frequency=0.45,
                    anisotropy=beta_from_ratio(0.45, 0.7))
    spec = williamson(build_hessian(state))
    bands = classify_bands(spec, setup)
    assert sorted(bands.labels) == ["ExB", "axial", "cyclotron"]
    for name, (lo, hi) in bands.intervals.items():
        assert lo == hi  # singleton bands


@pytest.mark.parametrize("n_ions, alpha_z, nu_c_hz, p_theta, gaps", [
    (2, 0.7, 76.08e3, 10.0, [("ExB", "cyclotron"), ("cyclotron", "axial")]),
    (8, 0.02, 7.608e6, 2000.0, [("ExB", "axial"), ("axial", "cyclotron")]),
], ids=["pair", "3d"])
def test_band_labels_intervals_and_gaps(beryllium, n_ions, alpha_z, nu_c_hz, p_theta, gaps):
    setup = TrapSetup(beryllium, TWO_PI * nu_c_hz, alpha_z, n_ions)
    spec = williamson(build_hessian(find_equilibrium(setup, p_theta, AnnealSchedule(seed=3))))
    bands = classify_bands(spec, setup)
    assert all(type(label) is str for label in bands.labels)
    assert {band: bands.labels.count(band) for band in set(bands.labels)} == {
        "ExB": n_ions, "cyclotron": n_ions, "axial": n_ions}
    # the lifted rotation mode is labelled ExB but lies outside every band
    reg = spec.regularized_mode
    assert reg is not None and bands.labels[reg] == "ExB"
    for lo, hi in bands.intervals.values():
        assert not lo <= spec.frequencies[reg] <= hi
    for band, interval in bands.intervals.items():
        members = [f for k, f in enumerate(spec.frequencies)
                   if bands.labels[k] == band and k != reg]
        assert interval == (min(members), max(members))
    # each gap runs from the top of the band below it to the bottom of the next
    assert [(a, b) for *_, a, b in bands.gaps] == gaps
    for lo, hi, below, above in bands.gaps:
        assert (lo, hi) == (bands.intervals[below][1], bands.intervals[above][0])


def test_cyclotron_band_near_cyclotron_frequency(spectrum_high):
    assert spectrum_high.frequencies.max() == pytest.approx(1.0, abs=0.05)


def test_symplectic_residual_everywhere(spectrum_high, eq_low_p4000):
    other = williamson(build_hessian(eq_low_p4000))
    for spec in (spectrum_high, other):
        jmat = symplectic_form(3 * spec.reference.n_ions)
        resid = np.abs(spec.symplectic @ jmat @ spec.symplectic.T - jmat).max()
        assert resid < 1e-10
