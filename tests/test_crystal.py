"""Equilibrium search: potentials, angular momentum, multi-start search,
refinement."""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from penninggate import (
    AnnealSchedule,
    StabilityClass,
    TrapSetup,
    anneal,
    beta_from_ratio,
    find_equilibrium,
    load_state,
    newton_refine,
    rotation_frequency_from_ptheta,
    stability_class,
    total_angular_momentum,
)
from penninggate import crystal
from penninggate.crystal import (
    CrystalState,
    _gradient,
    _implied_anisotropy,
    _pair_distances,
    _reduced_objective,
    _seed_positions,
    _trap_curvature,
    effective_potential,
    effective_potential_hessian,
    hex_lattice,
    reduced_energy,
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


def effective_potential_gradient(positions, alpha_r, axial_ratio):
    """Analytic gradient of the effective potential, shape (N, d) for (N, d)
    positions, from the kernel that the search and the Newton loop call."""
    positions = np.asarray(positions, dtype=float)
    curvature = _trap_curvature(alpha_r, axial_ratio, positions.shape[1])
    return _gradient(positions, curvature, _pair_distances(positions) ** -3)


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


@pytest.mark.parametrize("p_theta", [100.0, -2.5])
def test_a_single_ion_with_nonzero_ptheta_fails_before_any_search(beryllium, p_theta):
    # a confined single ion sits on the axis, so no rotation frequency gives
    # it a nonzero P_theta; the search and the outer solve are not started
    setup = TrapSetup(beryllium, 2 * math.pi * 76.08e3, 0.7, 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^a single ion sits on the trap axis, where P_theta "
                                         rf"is 0, so P_theta = {p_theta:g} cannot be matched$"):
        find_equilibrium(setup, p_theta)
    assert time.perf_counter() - start < 0.1
    assert find_equilibrium(setup, 0.0).angular_momentum == 0.0


def test_refine_iterations_sum_every_refinement(setup_high, monkeypatch):
    # each round of the outer P_theta solve is one lock-step refinement
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
    energy, grad = _reduced_objective(plane.ravel(), 1.3e5, 0.02, 2)
    energy_3d, grad_3d = _reduced_objective(space.ravel(), 1.3e5, 0.02, 3)
    assert energy == energy_3d == reduced_energy(plane, 1.3e5, 0.02)
    np.testing.assert_allclose(grad, grad_3d.reshape(30, 3)[:, :2].ravel(),
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
    # the gradient that the L-BFGS search follows, with its energy the
    # public reduced_energy
    rng = np.random.default_rng(17)
    cases = [(130000.0, 0.02, 20.0), (4000.0, 0.7, 7.0), (0.0, 0.7, 7.0)]
    for p_theta, alpha_z, spacing in cases:
        pos = np.zeros((30, 3))
        pos[:, :2] = spacing * hex_lattice(30)
        pos += 0.1 * spacing * rng.standard_normal((30, 3))
        energy, grad = _reduced_objective(pos.ravel(), p_theta, alpha_z, 3)
        assert energy == reduced_energy(pos, p_theta, alpha_z)
        grad = grad.reshape(pos.shape)
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


# the outer P_theta solve's root finds: Brent's method without scipy.optimize

GENERIC_FUNCTIONS = (
    lambda x: x**3 - 2.0 * x - 5.0,
    lambda x: math.exp(x) - 3.0,
    lambda x: math.sin(x) - 0.3,
    lambda x: math.atan(x - 0.7),
    lambda x: (x - 0.3) ** 5,
    lambda x: x * math.exp(-x) - 0.1,
    lambda x: math.copysign(abs(x - 0.123) ** 0.3, x - 0.123),
    lambda x: math.tanh(20.0 * (x - 0.5)) + 1e-3,
    # values so small that the interpolation's denominators underflow to 0
    lambda x: 1e-300 * math.atan(x - 0.3),
    lambda x: 1e-160 * (math.exp(x) - 2.0),
)


def root_or_error(solver, f, a, b, **tolerances):
    try:
        return solver(f, a, b, **tolerances)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


def test_brentq_returns_scipys_float_at_both_call_sites_and_on_generic_functions(beryllium,
                                                                                monkeypatch):
    from scipy.optimize import brentq

    original, calls = crystal._brentq, []

    def recorded(f, a, b, **tolerances):
        calls.append((f, a, b, tolerances))
        return original(f, a, b, **tolerances)

    monkeypatch.setattr(crystal, "_brentq", recorded)
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        n_ions = int(rng.integers(2, 40))
        alpha_z = float(10.0 ** rng.uniform(-2.3, math.log10(0.7)))
        setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, alpha_z, n_ions)
        crystal._seed_spacing(setup, float(10.0 ** rng.uniform(-1.0, 7.0)))
    while len(calls) < 5000:
        alpha_z = float(10.0 ** rng.uniform(-2.3, math.log10(0.7)))
        beta_max = 0.25 / alpha_z**2 - 0.5
        positions = float(10.0 ** rng.uniform(0.0, 2.0)) * rng.standard_normal((30, 3))
        beta = beta_max * float(10.0 ** rng.uniform(-6.0, -0.01))
        # a target whose model root lies inside the bounded anisotropy move
        beta_root = min(beta * float(64.0 ** rng.uniform(-1.0, 1.0)), 0.999 * beta_max)
        inertia = float(np.sum(positions[:, :2] ** 2))
        target = (inertia * (beta / beta_root) ** (2.0 / 3.0)
                  * alpha_z * math.sqrt(beta_max - beta_root))
        crystal._next_rotation_frequency(positions, beta, target, alpha_z)
    monkeypatch.undo()
    assert len(calls) >= 5000
    for f, a, b, tolerances in calls:
        assert crystal._brentq(f, a, b, **tolerances) == brentq(f, a, b, **tolerances)

    matched = 0
    for case in range(5000):
        f = GENERIC_FUNCTIONS[case % len(GENERIC_FUNCTIONS)]
        centre = float(rng.uniform(-3.0, 3.0))
        g = (lambda f, c: lambda x: f(x) - f(c))(f, centre)
        a = centre - float(rng.exponential(2.0))
        b = centre + float(rng.exponential(2.0))
        if rng.random() < 0.5:
            a, b = b, a
        tolerances = dict(xtol=float(10.0 ** rng.uniform(-16.0, -2.0)),
                          rtol=8.881784197001252e-16 * float(10.0 ** rng.uniform(0.0, 8.0)),
                          maxiter=int(rng.integers(1, 100)))
        ours = root_or_error(crystal._brentq, g, a, b, **tolerances)
        assert ours == root_or_error(brentq, g, a, b, **tolerances), (case, a, b, tolerances)
        matched += isinstance(ours, float)
    # most brackets converge; the rest run out of steps in both
    assert matched > 4000


@pytest.mark.parametrize("f, a, b, tolerances, error", [
    (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),
    (lambda x: x - 1.0, 2.0, 3.0, {}, ValueError),
    (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0, {}, ValueError),
    (lambda x: x**3 - 2.0 * x - 5.0, 0.0, 3.0, {"maxiter": 2}, RuntimeError),
    (lambda x: math.exp(x) - 3.0, -10.0, 10.0, {"xtol": 1e-16, "maxiter": 5}, RuntimeError),
])
def test_brentq_errors_are_scipys(f, a, b, tolerances, error):
    from scipy.optimize import brentq

    for solver in (brentq, crystal._brentq):
        with pytest.raises(error):
            solver(f, a, b, **tolerances)


@pytest.mark.parametrize("failure", ["maxiter", "nan"])
def test_a_failed_root_find_is_that_seeds_outcome(eq_low_p0, eq_low_p4000, failure,
                                                 monkeypatch):
    seeds = [eq_low_p0.positions, eq_low_p4000.positions]
    (alone,) = crystal._solve_at_fixed_ptheta(seeds[1:], 4000.0, 0.7)
    original, calls = crystal._brentq, []

    def failing_first(f, a, b, **tolerances):
        calls.append(a)
        if len(calls) == 1:
            if failure == "maxiter":
                tolerances["maxiter"] = 1
            else:
                f = lambda x: math.nan  # noqa: E731
        return original(f, a, b, **tolerances)

    monkeypatch.setattr(crystal, "_brentq", failing_first)
    outcomes = crystal._solve_at_fixed_ptheta(seeds, 4000.0, 0.7)
    assert len(calls) > 1
    error = RuntimeError if failure == "maxiter" else ValueError
    assert type(outcomes[0]) is error
    assert same_outcome(outcomes[1], alone)


@pytest.mark.parametrize("n_ions, alpha_z, p_theta", [
    (30, 0.02, 1.3e5), (30, 0.02, -1.3e5), (30, 0.7, 4000.0), (100, 0.02, 1.2e6), (2, 0.7, 10.0),
])
def test_seed_spacing_carries_the_angular_momentum(beryllium, n_ions, alpha_z, p_theta):
    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, alpha_z, n_ions)
    spacing = crystal._seed_spacing(setup, p_theta)
    positions = np.zeros((n_ions, 3))
    positions[:, :2] = spacing * hex_lattice(n_ions)
    # the virial anisotropy, and the slow rotation frequency that gives it
    inertia = float(np.sum(positions**2))
    beta = crystal.coulomb_energy(positions) / (alpha_z**2 * inertia)
    alpha_r = 0.5 - math.sqrt(0.25 - alpha_z**2 * (beta + 0.5))
    assert total_angular_momentum(positions, alpha_r) == pytest.approx(abs(p_theta), rel=1e-12)


def test_seed_spacing_at_zero_momentum_and_for_one_ion(beryllium):
    setup = TrapSetup(beryllium, 2 * math.pi * 7.608e6, 0.02, 30)
    spacing = crystal._seed_spacing(setup, 0.0)
    # a_min: the virial anisotropy is beta_max, where alpha_r = 1/2
    beta_max = 0.25 / 0.02**2 - 0.5
    assert _implied_anisotropy(spacing * hex_lattice(30), 0.02) == pytest.approx(beta_max,
                                                                                 rel=1e-12)
    assert crystal._seed_spacing(replace(setup, ion_count=1), 1.3e5) == 1.0


def scaling_model(positions, beta, target, alpha_z):
    """I(beta) s - P_theta with I(beta) = I_a (beta_a / beta)^(2/3) and
    beta = beta_max - s^2 / alpha_z^2."""
    inertia = float(np.sum(positions[:, :2] ** 2))
    beta_max = 0.25 / alpha_z**2 - 0.5
    return lambda s: inertia * (beta / (beta_max - s**2 / alpha_z**2)) ** (2.0 / 3.0) * s - target


@pytest.mark.parametrize("alpha_z, beta, target", [
    (0.02, 0.04, 1.3e5), (0.02, 0.3, 1.3e5), (0.7, 3.4e-4, 4000.0), (0.7, 1e-3, 4000.0),
])
def test_next_rotation_frequency_is_the_scaling_model_root(eq_high, alpha_z, beta, target):
    positions = eq_high.positions
    s = 0.5 - crystal._next_rotation_frequency(positions, beta, target, alpha_z)
    model = scaling_model(positions, beta, target, alpha_z)
    # the root lies within the tolerance the root find stops at
    tol = 1e-16 + 8.9e-16 * s
    assert model(s - tol) <= 0.0 <= model(s + tol)


def test_next_rotation_frequency_clamps_the_anisotropy_move(eq_high):
    positions, beta, alpha_z = eq_high.positions, 0.04, 0.02
    model = scaling_model(positions, beta, 1.0, alpha_z)
    # a target too small for the bracket: beta may rise at most 64-fold
    lo_target = model(0.02 * math.sqrt(0.25 / 0.02**2 - 0.5 - 64.0 * beta)) + 1.0
    alpha_r = crystal._next_rotation_frequency(positions, beta, 0.5 * lo_target, alpha_z)
    assert beta_from_ratio(alpha_r, alpha_z) == pytest.approx(64.0 * beta, rel=1e-9)
    # and too large: beta may fall at most 64-fold
    hi_target = model(0.02 * math.sqrt(0.25 / 0.02**2 - 0.5 - beta / 64.0)) + 1.0
    alpha_r = crystal._next_rotation_frequency(positions, beta, 2.0 * hi_target, alpha_z)
    assert beta_from_ratio(alpha_r, alpha_z) == pytest.approx(beta / 64.0, rel=1e-9)


@pytest.mark.parametrize("alpha_z", [0.75, 1.0])
def test_next_rotation_frequency_outside_the_confined_window(eq_high, alpha_z):
    with pytest.raises(ValueError, match="outside the confined window"):
        crystal._next_rotation_frequency(eq_high.positions, 0.04, 0.0, alpha_z)


WARM_START_SCRIPT = """
import math, sys
from penninggate import (AnnealSchedule, GateSpec, TrapSetup, build_hessian, calibrated_phase,
                         find_equilibrium, get_species, load_state, williamson)
setup = TrapSetup(get_species("Be+").species, 2 * math.pi * 76.08e3, 0.7, 30)
state = find_equilibrium(setup, 4000.0, initial_positions=load_state(sys.argv[1]).positions)
spectrum = williamson(build_hessian(state))
tau_r = 2 * math.pi / (state.rotation_frequency * setup.cyclotron_frequency)
spec = GateSpec(target_pair=(0, 1), carrier_frequency=0.51 * setup.cyclotron_frequency,
                gate_time=6e-3 * tau_r)
amplitude, phase = calibrated_phase(spec, spectrum, state, setup)
assert state.converged and abs(abs(phase.theta) - math.pi) < 1e-9
print("warm", "scipy.optimize" in sys.modules)
find_equilibrium(setup, 4000.0, AnnealSchedule())
print("search", "scipy.optimize" in sys.modules)
"""


def test_warm_started_pipeline_does_not_import_scipy_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", WARM_START_SCRIPT,
                           str(DATA / "eq30_reference.txt")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["warm", "False", "search", "True"]
