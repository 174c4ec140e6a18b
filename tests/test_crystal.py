"""Equilibrium search: potentials, angular momentum, multi-start search,
refinement."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from penninggate import (
    AnnealSchedule,
    StabilityClass,
    TrapSetup,
    anneal,
    find_equilibrium,
    load_state,
    newton_refine,
    rotation_frequency_from_ptheta,
    stability_class,
    total_angular_momentum,
)
from penninggate.crystal import (
    CrystalState,
    _implied_anisotropy,
    _seed_positions,
    effective_potential,
    effective_potential_gradient,
    effective_potential_hessian,
    hex_lattice,
    reduced_energy,
    reduced_energy_gradient,
)
from penninggate.modes import build_hessian, williamson

from phase_space import orthogonal_modes

DATA = Path(__file__).parent / "data"


def pair_distance_oracle(alpha_z):
    """1D minimization of kappa d^2/4 + 1/d for the two-ion crystal."""
    kappa = (1.0 - 2.0 * alpha_z**2) / 4.0
    res = minimize_scalar(lambda d: kappa * d**2 / 4.0 + 1.0 / d, bounds=(0.1, 100.0),
                          method="bounded", options={"xatol": 1e-12})
    return res.x


def ring_counts(positions, rel_gap=1.6):
    """Shell occupation numbers from radius clustering."""
    radii = np.sort(np.hypot(positions[:, 0], positions[:, 1]))
    scale = radii.max()
    counts = []
    current = 1
    for a, b in zip(radii, radii[1:]):
        if b - a > 0.18 * scale and b > rel_gap * max(a, 0.05 * scale):
            counts.append(current)
            current = 0
        current += 1
    counts.append(current)
    return tuple(counts)


def test_single_ion_potential_is_zero_at_origin():
    assert effective_potential(np.zeros((1, 3)), 0.5, 0.7) == 0.0


def test_two_ion_minimum_matches_scalar_oracle(eq_pair):
    d = np.linalg.norm(eq_pair.positions[0] - eq_pair.positions[1])
    expected = pair_distance_oracle(0.7)
    assert expected == pytest.approx(400.0 ** (1.0 / 3.0), rel=1e-9)
    assert d == pytest.approx(expected, rel=1e-8)


def test_coincident_ions_rejected():
    pos = np.zeros((2, 3))
    with pytest.raises(ValueError):
        effective_potential(pos, 0.5, 0.7)


def test_reference_configuration_energy_regression():
    state = load_state(DATA / "eq30_reference.txt")
    recomputed = effective_potential(state.positions, state.rotation_frequency,
                                     state.axial_ratio)
    assert recomputed == pytest.approx(state.energy, rel=1e-12)


def test_angular_momentum_zero_at_half_cyclotron(eq_pair):
    assert total_angular_momentum(eq_pair.positions, 0.5) == 0.0


def test_angular_momentum_quadratic_radius_scaling(eq_pair):
    base = total_angular_momentum(eq_pair.positions, 0.3)
    scaled = total_angular_momentum(1.7 * eq_pair.positions, 0.3)
    assert scaled == pytest.approx(1.7**2 * base, rel=1e-12)


def test_angular_momentum_round_trip(eq_pair):
    for alpha_r in (0.31, 0.5, 0.62):
        p = total_angular_momentum(eq_pair.positions, alpha_r)
        assert rotation_frequency_from_ptheta(eq_pair.positions, p) == pytest.approx(
            alpha_r, abs=1e-12
        )


def test_rotation_frequency_affine_in_ptheta(eq_pair):
    p1 = rotation_frequency_from_ptheta(eq_pair.positions, 40.0)
    p2 = rotation_frequency_from_ptheta(eq_pair.positions, 80.0)
    p0 = rotation_frequency_from_ptheta(eq_pair.positions, 0.0)
    assert p0 == 0.5
    assert (p2 - p0) == pytest.approx(2.0 * (p1 - p0), rel=1e-12)


def test_rotation_frequency_rejects_axial_configuration():
    pos = np.zeros((3, 3))
    pos[:, 2] = [-1.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        rotation_frequency_from_ptheta(pos, 10.0)


def test_rotation_frequency_at_slow_point(eq_low_p4000):
    assert eq_low_p4000.rotation_frequency == pytest.approx(32.75 / 76.08, abs=0.002)


def test_anneal_two_ions_near_oracle(small_pair_setup):
    schedule = AnnealSchedule(seed=5)
    candidates = anneal(small_pair_setup, 0.0, schedule)
    best = min(candidates, key=lambda c: c.energy)
    d = np.linalg.norm(best.positions[0] - best.positions[1])
    assert d == pytest.approx(400.0 ** (1.0 / 3.0), rel=0.05)


def test_anneal_zero_steps_returns_seed(small_pair_setup):
    # zero L-BFGS steps: every candidate is its virial-lattice start, jittered
    # by a tenth of the lattice spacing; the pair's seed is planar-class, so
    # the jitter's z column is drawn and dropped
    schedule = AnnealSchedule(cycles=2, steps_per_cycle=0, seed=9)
    lattice, spacing = _seed_positions(small_pair_setup, 0.0)
    rng = np.random.default_rng(9)
    candidates = anneal(small_pair_setup, 0.0, schedule)
    assert len(candidates) == 2
    for cand in candidates:
        expected = lattice + 0.1 * spacing * rng.standard_normal((2, 3))
        expected[:, 2] = 0.0
        np.testing.assert_array_equal(cand.positions, expected)


def test_anneal_deterministic_for_fixed_seed(small_pair_setup):
    schedule = AnnealSchedule(seed=21)
    first = anneal(small_pair_setup, 0.0, schedule)
    second = anneal(small_pair_setup, 0.0, schedule)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.energy == b.energy


def _pair_candidate(small_pair_setup, d):
    pos = np.array([[d / 2, 0.0, 0.0], [-d / 2, 0.0, 0.0]])
    return CrystalState(
        positions=pos,
        axial_ratio=small_pair_setup.axial_ratio,
        rotation_frequency=0.5,
        angular_momentum=0.0,
        anisotropy=1.0 / (4 * small_pair_setup.axial_ratio**2) - 0.5,
        energy=effective_potential(pos, 0.5, small_pair_setup.axial_ratio),
        converged=False,
        gradient_norm=np.inf,
    )


def test_newton_refine_reaches_oracle_separation(small_pair_setup):
    refined = newton_refine(_pair_candidate(small_pair_setup, 7.0), grad_tol=1e-13)
    d = np.linalg.norm(refined.positions[0] - refined.positions[1])
    assert refined.converged
    assert d == pytest.approx(400.0 ** (1.0 / 3.0), abs=1e-10)


def test_newton_refine_fixed_point(eq_pair):
    again = newton_refine(eq_pair)
    assert again.refine_iterations == 0
    np.testing.assert_array_equal(again.positions, eq_pair.positions)


def test_newton_energy_never_increases(small_pair_setup):
    candidate = _pair_candidate(small_pair_setup, 3.0)
    refined = newton_refine(candidate)
    assert refined.converged
    assert refined.energy <= candidate.energy + 1e-15


def test_newton_refine_snaps_a_planar_crystal_to_the_plane(eq_high):
    lifted = eq_high.positions.copy()
    lifted[:, 2] = 1e-7 * np.random.default_rng(2).standard_normal(eq_high.n_ions)
    refined = newton_refine(CrystalState.at(lifted, eq_high.rotation_frequency,
                                            eq_high.axial_ratio))
    assert refined.converged
    assert np.all(refined.positions[:, 2] == 0.0)


def test_planar_pair_refines_in_the_plane(small_pair_setup, monkeypatch):
    from penninggate import crystal

    shapes = []
    original = crystal._hessian

    def recorded(positions, *args):
        # the lock-step refinement stacks its candidates on a leading axis
        shapes.append(np.shape(positions)[-2:])
        return original(positions, *args)

    monkeypatch.setattr(crystal, "_hessian", recorded)
    refined = newton_refine(_pair_candidate(small_pair_setup, 7.0), grad_tol=1e-13)
    assert refined.converged
    assert refined.refine_iterations == len(shapes) > 0
    assert set(shapes) == {(2, 2)}
    assert refined.positions.shape == (2, 3)
    assert np.all(refined.positions[:, 2] == 0.0)


def test_planar_class_forced_on_a_3d_point_fails_the_axial_check(beryllium, monkeypatch):
    # N = 8 at P_theta = 2000 equilibrates at beta = 0.48 > beta_c(8) = 0.235:
    # forced into the plane, the search and refinement converge on a saddle
    # along z, which the axial-block Cholesky rejects
    from penninggate import crystal

    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, 8)
    monkeypatch.setattr(crystal, "stability_class", lambda beta, n: StabilityClass.PLANAR_2D)
    candidate = anneal(setup, 2000.0, AnnealSchedule(cycles=1, seed=3))[0]
    assert np.all(candidate.positions[:, 2] == 0.0)
    with pytest.raises(ValueError, match=r"^equilibrium: the planar crystal is a saddle along z: "
                                         r"beta = [0-9.e-]+, beta_c = 0\.235113 at N = 8, "
                                         r"lowest axial eigenvalue -\d"):
        newton_refine(candidate)
    with pytest.raises(RuntimeError, match="no search candidate could be refined .*saddle along z"):
        find_equilibrium(setup, 2000.0, AnnealSchedule(seed=3))


def test_refine_iterations_sum_every_refinement(setup_high, monkeypatch):
    # each round of the outer P_theta solve is one lock-step refinement
    from penninggate import crystal

    steps = []
    original = crystal._refine_in_lockstep

    def counted(*args, **kwargs):
        (state,) = original(*args, **kwargs)
        steps.append(state.refine_iterations)
        return [state]

    monkeypatch.setattr(crystal, "_refine_in_lockstep", counted)
    state = find_equilibrium(setup_high, 1.3e5, AnnealSchedule(cycles=1, seed=7))
    assert len(steps) >= 2
    assert state.refine_iterations == sum(steps)


def state_bytes(state):
    numbers = (state.rotation_frequency, state.angular_momentum, state.anisotropy, state.energy,
               state.gradient_norm)
    return (state.positions.tobytes(), [float(x).hex() for x in numbers], state.converged,
            state.refine_iterations)


def same_outcome(a, b):
    """Byte equality of two refinement outcomes: states, or errors."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return state_bytes(a) == state_bytes(b)


@pytest.mark.parametrize("n_ions, p_theta, seed", [(30, 1.3e5, 11), (8, 2000.0, 3)])
def test_each_seed_solved_alone_equals_its_row_of_the_lockstep_batch(beryllium, n_ions,
                                                                    p_theta, seed):
    # the fig4 search, and a 3D one whose candidates refine in all 3N coordinates
    from penninggate import crystal

    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, n_ions)
    seeds = [c.positions for c in anneal(setup, p_theta, AnnealSchedule(seed=seed))]
    batch = crystal._solve_at_fixed_ptheta(seeds, p_theta, 0.02)
    alone = [crystal._solve_at_fixed_ptheta([start], p_theta, 0.02)[0] for start in seeds]
    assert len(batch) == 12 and all(isinstance(state, CrystalState) for state in batch)
    assert all(map(same_outcome, batch, alone))
    assert {state.positions[:, 2].any() for state in batch} == {n_ions == 8}


def test_a_lockstep_batch_refines_in_the_plane_and_in_space_as_alone(setup_high, eq_high):
    # the fig4 candidates in the plane, next to a planar crystal lifted off
    # it, which relaxes in 3N coordinates and then snaps to the plane
    from penninggate import crystal

    candidates = anneal(setup_high, 1.3e5, AnnealSchedule(seed=11))
    lifted = eq_high.positions.copy()
    lifted[:, 2] = 1e-7 * np.random.default_rng(2).standard_normal(eq_high.n_ions)
    starts = [c.positions for c in candidates] + [lifted]
    alphas = [c.rotation_frequency for c in candidates] + [eq_high.rotation_frequency]
    batch = crystal._refine_in_lockstep(starts, alphas, 0.02)
    alone = [newton_refine(CrystalState.at(start, alpha_r, 0.02))
             for start, alpha_r in zip(starts, alphas)]
    assert all(state.converged for state in batch)
    assert all(map(same_outcome, batch, alone))
    assert np.all(batch[-1].positions[:, 2] == 0.0)


def test_a_failing_candidate_leaves_its_batch_mates_unchanged(beryllium, monkeypatch):
    from penninggate import crystal
    from penninggate.scales import beta_from_ratio

    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, 8)
    candidates = anneal(setup, 2000.0, AnnealSchedule(seed=3))
    starts = [c.positions for c in candidates]
    alphas = [c.rotation_frequency for c in candidates]
    clean = crystal._refine_in_lockstep(starts, alphas, 0.02)
    # a start with two coincident ions fails before its first step; candidate
    # 2, taken for planar-class, relaxes in space, drops onto the plane and
    # fails there, passes after its batch-mates began
    coincident = starts[0].copy()
    coincident[1] = coincident[0]
    forced = beta_from_ratio(alphas[2], 0.02)
    classify = crystal.stability_class
    monkeypatch.setattr(crystal, "stability_class", lambda beta, n: (
        StabilityClass.PLANAR_2D if beta == forced else classify(beta, n)))
    mixed = crystal._refine_in_lockstep(starts[:5] + [coincident] + starts[5:],
                                        alphas[:5] + alphas[:1] + alphas[5:], 0.02)
    assert str(mixed.pop(5)) == "coincident ions: Coulomb energy singular"
    assert isinstance(mixed[2], ValueError) and isinstance(clean[2], CrystalState)
    assert all(same_outcome(a, b) for k, (a, b) in enumerate(zip(mixed, clean)) if k != 2)


def test_the_search_failure_names_the_last_candidate_in_start_order(beryllium, monkeypatch):
    # the coincident seed fails first, the planar saddle a refinement later;
    # the message names the one that comes last among the starts
    from types import SimpleNamespace

    from penninggate import crystal

    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, 8)
    monkeypatch.setattr(crystal, "stability_class", lambda beta, n: StabilityClass.PLANAR_2D)
    saddle = anneal(setup, 2000.0, AnnealSchedule(cycles=1, seed=3))[0].positions
    coincident = saddle.copy()
    coincident[1] = coincident[0]
    for order, last in (((coincident, saddle), "saddle along z"),
                        ((saddle, coincident), "coincident ions")):
        monkeypatch.setattr(crystal, "anneal", lambda *args, order=order: [
            SimpleNamespace(positions=positions) for positions in order])
        with pytest.raises(RuntimeError, match=rf"^no search candidate could be refined "
                                               rf"\(.*{last}"):
            find_equilibrium(setup, 2000.0)


def test_newton_refine_forms_the_pair_distances_once_per_position(setup_high, monkeypatch):
    # one pass for the start and one per line-search trial (this candidate
    # takes every full step); the accepted trial's distances serve the next
    # gradient and Hessian, and the returned state
    from penninggate import crystal

    candidate = anneal(setup_high, 1.3e5, AnnealSchedule(cycles=1, seed=3))[0]
    passes = []
    original = crystal._pair_distances

    def counted(positions):
        passes.append(1)
        return original(positions)

    monkeypatch.setattr(crystal, "_pair_distances", counted)
    refined = newton_refine(candidate)
    assert refined.converged and refined.refine_iterations > 5
    assert len(passes) == refined.refine_iterations + 1


def test_min_excitation_matches_finite_difference_pipeline(eq_low_p0):
    # independent route: finite differences of the effective potential,
    # orthogonal diagonalization in the minimal-coupling-free frame
    state = eq_low_p0
    n = state.n_ions
    flat = state.positions.reshape(-1).copy()
    h = 1e-3

    def potential(vec):
        return effective_potential(vec.reshape(n, 3), 0.5, state.axial_ratio)

    fd = np.zeros((3 * n, 3 * n))
    for i in range(3 * n):
        for j in range(i, 3 * n):
            pp = flat.copy(); pp[i] += h; pp[j] += h
            pm = flat.copy(); pm[i] += h; pm[j] -= h
            mp = flat.copy(); mp[i] -= h; mp[j] += h
            mm = flat.copy(); mm[i] -= h; mm[j] -= h
            val = (potential(pp) - potential(pm) - potential(mp) + potential(mm)) / (4 * h * h)
            fd[i, j] = fd[j, i] = val
    evals = np.linalg.eigvalsh(fd)
    fd_min = math.sqrt(max(sorted(evals)[1], 0.0))  # skip the rotational zero
    freqs, _ = orthogonal_modes(state)
    analytic_min = sorted(freqs)[1]
    assert fd_min == pytest.approx(analytic_min, abs=1e-6)


def test_find_equilibrium_zero_momentum(setup_low, eq_low_p0):
    assert eq_low_p0.rotation_frequency == 0.5
    assert eq_low_p0.angular_momentum == 0.0
    assert eq_low_p0.converged
    assert eq_low_p0.gradient_norm < 1e-10
    eq_low_p0.validate()


def test_find_equilibrium_experiment_scale(eq_high):
    assert eq_high.rotation_frequency * 7608.0 == pytest.approx(1.65, rel=0.15)
    assert eq_high.angular_momentum == pytest.approx(1.3e5, rel=1e-9)
    eq_high.validate()


def test_equilibrium_energy_rotation_invariant(eq_low_p4000):
    state = eq_low_p4000
    theta = 0.8137
    rot = np.array(
        [[math.cos(theta), -math.sin(theta), 0.0],
         [math.sin(theta), math.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    rotated = state.positions @ rot.T
    e_rot = effective_potential(rotated, state.rotation_frequency, state.axial_ratio)
    assert e_rot == pytest.approx(state.energy, rel=1e-12)


def test_equilibrium_is_planar(eq_low_p4000, eq_high):
    for state in (eq_low_p4000, eq_high):
        assert stability_class(state.anisotropy, state.n_ions) is StabilityClass.PLANAR_2D
        assert np.abs(state.positions[:, 2]).max() <= 1e-10


def test_single_rotational_zero_mode(eq_low_p4000):
    from penninggate.modes import symplectic_form

    qh = build_hessian(eq_low_p4000)
    # dynamical spectrum of the raw (unregularized) Hessian: exactly one
    # zero in-plane mode, every other frequency strictly positive
    jmat = symplectic_form(3 * eq_low_p4000.n_ions)
    raw = np.sort(np.abs(np.linalg.eigvals(jmat @ qh.matrix).imag))[::2]
    assert raw[0] < 1e-6
    assert raw[1] > 1e-6
    spectrum = williamson(qh)
    assert spectrum.regularized_mode == 0
    assert np.sort(spectrum.frequencies)[1] > 1e-6


KNOWN_SHELLS = {2: (2,), 3: (3,), 4: (4,), 5: (5,), 6: (1, 5), 7: (1, 6), 8: (1, 7)}


@pytest.mark.parametrize("n_ions", sorted(KNOWN_SHELLS))
def test_small_cluster_shell_structure(beryllium, n_ions):
    setup = TrapSetup(beryllium, 2 * math.pi * 76.08e3, 0.7, n_ions)
    found = find_equilibrium(setup, 0.0, AnnealSchedule(seed=2))
    # oracle: exhaustive random restarts
    best = None
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        d0 = 400.0 ** (1.0 / 3.0)
        start = 0.8 * d0 * rng.standard_normal((n_ions, 3))
        start[:, 2] *= 0.1
        try:
            cand = find_equilibrium(setup, 0.0, initial_positions=start)
        except RuntimeError:
            continue
        if best is None or cand.energy < best.energy:
            best = cand
    assert best is not None
    assert found.energy == pytest.approx(best.energy, rel=1e-8)
    assert ring_counts(found.positions) == KNOWN_SHELLS[n_ions]
    assert ring_counts(best.positions) == KNOWN_SHELLS[n_ions]


def test_reduced_energy_matches_effective_potential_at_consistency(eq_low_p4000):
    # at the self-consistent point, E_red = V_eff + P^2/I (Legendre shift)
    state = eq_low_p4000
    inertia = float(np.sum(state.positions[:, 0] ** 2 + state.positions[:, 1] ** 2))
    expected = state.energy + state.angular_momentum**2 / inertia
    actual = reduced_energy(state.positions, state.angular_momentum, state.axial_ratio)
    assert actual == pytest.approx(expected, rel=1e-12)


def test_negative_angular_momentum_mirror(setup_low, eq_low_p0):
    plus = find_equilibrium(setup_low, 1000.0, initial_positions=eq_low_p0.positions)
    minus = find_equilibrium(setup_low, -1000.0, initial_positions=eq_low_p0.positions)
    assert minus.rotation_frequency == pytest.approx(1.0 - plus.rotation_frequency, abs=1e-12)
    assert minus.angular_momentum == pytest.approx(-plus.angular_momentum, rel=1e-12)


def test_in_plane_kernels_are_the_plane_slices_at_z_zero():
    rng = np.random.default_rng(4)
    space = np.zeros((30, 3))
    space[:, :2] = 20.0 * hex_lattice(30) + rng.standard_normal((30, 2))
    plane = space[:, :2].copy()
    args = (2.2e-4, 0.02)
    assert effective_potential(plane, *args) == effective_potential(space, *args)
    assert reduced_energy(plane, 1.3e5, 0.02) == reduced_energy(space, 1.3e5, 0.02)
    np.testing.assert_allclose(effective_potential_gradient(plane, *args),
                               effective_potential_gradient(space, *args)[:, :2],
                               rtol=1e-13, atol=1e-16)
    np.testing.assert_allclose(reduced_energy_gradient(plane, 1.3e5, 0.02),
                               reduced_energy_gradient(space, 1.3e5, 0.02)[:, :2],
                               rtol=1e-13, atol=1e-16)
    inplane = np.flatnonzero(np.arange(90) % 3 != 2)
    np.testing.assert_array_equal(effective_potential_hessian(plane, *args),
                                  effective_potential_hessian(space, *args)[np.ix_(inplane, inplane)])


def test_in_plane_gradient_and_hessian_match_central_differences():
    rng = np.random.default_rng(8)
    plane = 20.0 * hex_lattice(30) + 2.0 * rng.standard_normal((30, 2))
    args, h = (2.2e-4, 0.02), 1e-3
    grad = effective_potential_gradient(plane, *args)
    hess = effective_potential_hessian(plane, *args)
    fd_grad = np.zeros_like(plane)
    fd_hess = np.zeros_like(hess)
    for i, idx in enumerate(np.ndindex(*plane.shape)):
        up, down = plane.copy(), plane.copy()
        up[idx] += h
        down[idx] -= h
        fd_grad[idx] = (effective_potential(up, *args) - effective_potential(down, *args)) / (2 * h)
        fd_hess[:, i] = (effective_potential_gradient(up, *args)
                         - effective_potential_gradient(down, *args)).ravel() / (2 * h)
    assert np.linalg.norm(fd_grad - grad) <= 1e-6 * np.linalg.norm(grad)
    assert np.linalg.norm(fd_hess - hess) <= 1e-6 * np.linalg.norm(hess)


def test_reduced_energy_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    cases = [(130000.0, 0.02, 20.0), (4000.0, 0.7, 7.0), (0.0, 0.7, 7.0)]
    for p_theta, alpha_z, spacing in cases:
        pos = np.zeros((30, 3))
        pos[:, :2] = spacing * hex_lattice(30)
        pos += 0.1 * spacing * rng.standard_normal((30, 3))
        grad = reduced_energy_gradient(pos, p_theta, alpha_z)
        h = 1e-4 * spacing
        fd = np.zeros_like(pos)
        for idx in np.ndindex(*pos.shape):
            up, down = pos.copy(), pos.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (reduced_energy(up, p_theta, alpha_z)
                       - reduced_energy(down, p_theta, alpha_z)) / (2.0 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


@pytest.mark.parametrize("point", ["fig4", "slow_p0", "slow_p4000"])
def test_seed_is_planar_at_the_final_anisotropy(point, setup_high, setup_low, eq_high,
                                                eq_low_p0, eq_low_p4000):
    # the seed's virial size must land near the equilibrium, not on an
    # axial chain: at fig4 the old fixed point ended at beta ~ beta_max
    setup, p_theta, final = {
        "fig4": (setup_high, 1.3e5, eq_high),
        "slow_p0": (setup_low, 0.0, eq_low_p0),
        "slow_p4000": (setup_low, 4000.0, eq_low_p4000),
    }[point]
    seed, _ = _seed_positions(setup, p_theta)
    assert np.all(seed[:, 2] == 0.0)
    beta = _implied_anisotropy(seed, setup.axial_ratio)
    assert stability_class(beta, setup.ion_count) is StabilityClass.PLANAR_2D
    assert beta == pytest.approx(final.anisotropy, rel=0.05)


def jittered_hex_start(n_ions, p_theta, seed):
    """Hexagonal lattice sized so that sum r^2 / 2 = P_theta, 5 % jitter."""
    rng = np.random.default_rng(seed)
    lattice = hex_lattice(n_ions)
    spacing = math.sqrt(2.0 * p_theta / float(np.sum(lattice**2)))
    start = np.zeros((n_ions, 3))
    start[:, :2] = spacing * lattice
    return start + 0.05 * spacing * rng.standard_normal((n_ions, 3))


# the last bound is the Metropolis annealer's E_red on the same schedule seed
@pytest.mark.parametrize("n_ions, p_theta, annealed",
                         [(30, 1.3e5, 64978.45739053232), (60, 4e5, 199935.59614697687)])
def test_search_is_no_worse_than_warm_starts(beryllium, n_ions, p_theta, annealed):
    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, n_ions)
    found = find_equilibrium(setup, p_theta, AnnealSchedule(seed=1))
    searched = reduced_energy(found.positions, p_theta, 0.02)
    assert searched <= annealed
    warm = min(
        reduced_energy(find_equilibrium(setup, p_theta, initial_positions=jittered_hex_start(
            n_ions, p_theta, seed)).positions, p_theta, 0.02)
        for seed in range(8)
    )
    # the same basin found two ways differs in the last digits only
    assert searched <= warm + 1e-12 * warm


def test_search_repeats_bit_for_bit(setup_high, eq_high):
    again = find_equilibrium(setup_high, 1.3e5, AnnealSchedule(seed=7))
    np.testing.assert_array_equal(again.positions, eq_high.positions)
    assert again.rotation_frequency == eq_high.rotation_frequency
