"""Equilibrium configurations of the rotating planar Coulomb crystal.

All positions are in units of the characteristic length, energies in units
of the characteristic Coulomb energy, rotation frequencies as the ratio
``alpha_r = omega_r / omega_c``, and the canonical angular momentum in units
``l_s^2 m omega_c``.

Sign convention: the stored angular momentum is positive for crystals that
rotate slower than omega_c/2,

    P_theta = sum_k r_k^2 * (1/2 - alpha_r),

so that P_theta = 0 picks the frame without magnetic field in the rotating
frame.  Equilibria at fixed P_theta are found in three steps:

* a multi-start L-BFGS search of the reduced (momentum-eliminated) energy,
  each start a jittered planar hexagonal lattice whose spacing the virial
  relation sizes to carry P_theta;
* damped Newton refinement of each candidate's corotating-frame effective
  potential at fixed alpha_r;
* an outer scalar root-find for the alpha_r whose refined crystal carries the
  target P_theta; the refined crystal of lowest reduced energy is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scales import TrapSetup, beta_from_ratio, stability_class, StabilityClass

_MIN_SEPARATION = 1e-9
_NEWTON_STEPS = 200  # Newton step budget of a refinement, and again after its planar snap


@dataclass(frozen=True)
class CrystalState:
    """Snapshot of one (candidate) equilibrium configuration."""

    positions: np.ndarray          # (N, 3), units l_s
    axial_ratio: float             # alpha_z of the trap the state belongs to
    rotation_frequency: float      # alpha_r = omega_r / omega_c
    angular_momentum: float        # P_theta, units l_s^2 m omega_c
    anisotropy: float              # beta(alpha_r)
    energy: float                  # effective potential, units E_s
    converged: bool
    gradient_norm: float
    refine_iterations: int | None = None

    @classmethod
    def at(cls, positions, alpha_r, axial_ratio, converged=False, refine_iterations=None):
        """State of ``positions`` at rotation alpha_r, with the anisotropy,
        P_theta, energy and gradient norm that follow from them."""
        positions = np.asarray(positions, dtype=float)
        grad = effective_potential_gradient(positions, alpha_r, axial_ratio)
        return cls(
            positions=positions,
            axial_ratio=axial_ratio,
            rotation_frequency=alpha_r,
            angular_momentum=total_angular_momentum(positions, alpha_r),
            anisotropy=beta_from_ratio(alpha_r, axial_ratio),
            energy=effective_potential(positions, alpha_r, axial_ratio),
            converged=converged,
            gradient_norm=float(np.linalg.norm(grad)),
            refine_iterations=refine_iterations,
        )

    @property
    def n_ions(self) -> int:
        return self.positions.shape[0]

    def validate(self, rtol_beta=1e-12, atol_ptheta=1e-10):
        """Check the internal consistency relations of the state."""
        beta = beta_from_ratio(self.rotation_frequency, self.axial_ratio)
        if abs(beta - self.anisotropy) > rtol_beta * max(1.0, abs(beta)):
            raise ValueError("anisotropy inconsistent with rotation frequency")
        ptheta = total_angular_momentum(self.positions, self.rotation_frequency)
        if abs(ptheta - self.angular_momentum) > atol_ptheta * max(1.0, abs(ptheta)):
            raise ValueError("angular momentum inconsistent with positions")
        return True


@dataclass(frozen=True)
class AnnealSchedule:
    """Budget of the multi-start equilibrium search (``anneal``).

    ``cycles`` is the number of starts, one candidate each;
    ``steps_per_cycle`` caps the L-BFGS iterations of one start, and 0
    returns the starts unchanged; ``step_size`` is the standard deviation
    of the Gaussian jitter added to every coordinate of the hexagonal seed;
    ``seed`` fixes that jitter.
    """

    cycles: int
    steps_per_cycle: int
    step_size: float
    seed: int

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycle count must be at least 1")
        if self.steps_per_cycle < 0:
            raise ValueError("steps per cycle must be nonnegative")
        if self.step_size <= 0:
            raise ValueError("seed jitter must be positive")


def _pair_distances(positions):
    """Pair distances, shape (N, N), with infinity on the diagonal; summed
    one axis at a time, which is cheaper than an (N, N, 3) difference."""
    dist2 = (positions[:, None, 0] - positions[None, :, 0]) ** 2
    for mu in range(1, positions.shape[1]):
        dist2 += (positions[:, None, mu] - positions[None, :, mu]) ** 2
    dist = np.sqrt(dist2)
    np.fill_diagonal(dist, np.inf)
    return dist


def coulomb_energy(positions) -> float:
    dist = _pair_distances(np.asarray(positions, dtype=float))
    if dist.min(initial=np.inf) < _MIN_SEPARATION:
        raise ValueError("coincident ions: Coulomb energy singular")
    return 0.5 * float(np.sum(1.0 / dist))


def effective_potential(positions, alpha_r, axial_ratio) -> float:
    """Corotating-frame effective potential at fixed rotation alpha_r.

    V = sum_k (alpha_z^2 / 2) (z_k^2 + beta r_k^2) + sum_{k<j} 1/d_kj.
    """
    positions = np.asarray(positions, dtype=float)
    beta = beta_from_ratio(alpha_r, axial_ratio)
    r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
    trap = 0.5 * axial_ratio**2 * float(np.sum(positions[:, 2] ** 2 + beta * r2))
    return trap + coulomb_energy(positions)


def effective_potential_gradient(positions, alpha_r, axial_ratio):
    """Analytic gradient of the effective potential, shape (N, 3)."""
    positions = np.asarray(positions, dtype=float)
    beta = beta_from_ratio(alpha_r, axial_ratio)
    grad = np.empty_like(positions)
    grad[:, 0] = axial_ratio**2 * beta * positions[:, 0]
    grad[:, 1] = axial_ratio**2 * beta * positions[:, 1]
    grad[:, 2] = axial_ratio**2 * positions[:, 2]
    inv3 = _pair_distances(positions) ** -3
    # sum_j (r_k - r_j) / d_kj^3
    grad -= inv3.sum(axis=1)[:, None] * positions - inv3 @ positions
    return grad


def coulomb_block_tensor(positions):
    """Pairwise Coulomb curvature tensor, shape (N, N, 3, 3).

    Entry [k, j] with k != j is the mixed second derivative block
    d^2 V_C / d r_k d r_j; the diagonal blocks hold the second derivative
    with respect to r_k alone.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    inv3 = dist**-3
    inv5 = dist**-5
    outer = np.einsum("ijk,ijl->ijkl", diff, diff)
    eye = np.eye(3)
    offdiag = eye[None, None, :, :] * inv3[:, :, None, None] - 3.0 * outer * inv5[:, :, None, None]
    idx = np.arange(n)
    offdiag[idx, idx] = -offdiag.sum(axis=1)  # the diagonal blocks were 0
    return offdiag


def effective_potential_hessian(positions, alpha_r, axial_ratio):
    """Analytic Hessian of the effective potential, shape (3N, 3N)."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    beta = beta_from_ratio(alpha_r, axial_ratio)
    blocks = coulomb_block_tensor(positions)
    trap = np.diag([axial_ratio**2 * beta, axial_ratio**2 * beta, axial_ratio**2])
    idx = np.arange(n)
    blocks[idx, idx] += trap[None, :, :]
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def total_angular_momentum(positions, alpha_r) -> float:
    """Rigid-body canonical angular momentum at rotation alpha_r."""
    positions = np.asarray(positions, dtype=float)
    r2 = float(np.sum(positions[:, 0] ** 2 + positions[:, 1] ** 2))
    return r2 * (0.5 - alpha_r)


def rotation_frequency_from_ptheta(positions, p_theta) -> float:
    """Invert the rigid-body relation for alpha_r at fixed positions."""
    positions = np.asarray(positions, dtype=float)
    r2 = float(np.sum(positions[:, 0] ** 2 + positions[:, 1] ** 2))
    if p_theta == 0.0:
        return 0.5
    if r2 <= 0.0:
        raise ValueError("all-axial configuration: rotation frequency undefined")
    return 0.5 - p_theta / r2


def reduced_energy(positions, p_theta, axial_ratio) -> float:
    """Fixed-angular-momentum energy with the momenta eliminated.

    Minimizing this over positions is equivalent to the pair
    (minimize effective potential at alpha_r, match P_theta); the rotational
    kinetic term P^2 / (2 I) carries the angular-momentum constraint.
    """
    positions = np.asarray(positions, dtype=float)
    r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
    kappa = (1.0 - 2.0 * axial_ratio**2) / 8.0
    trap = float(np.sum(0.5 * axial_ratio**2 * positions[:, 2] ** 2 + kappa * r2))
    inertia = float(np.sum(r2))
    if p_theta == 0.0:
        rot = 0.0
    elif inertia <= 0.0:
        return math.inf
    else:
        rot = p_theta**2 / (2.0 * inertia)
    return trap + coulomb_energy(positions) + rot


def reduced_energy_gradient(positions, p_theta, axial_ratio):
    """Analytic gradient of ``reduced_energy``, shape (N, 3).

    At the alpha_r whose rigid rotor carries P_theta, alpha_z^2 beta =
    2 kappa - P^2 / I^2, so this is the effective-potential gradient there.
    """
    alpha_r = rotation_frequency_from_ptheta(positions, p_theta)
    return effective_potential_gradient(positions, alpha_r, axial_ratio)


def hex_lattice(n_ions):
    """First n sites of a unit-spacing 2D hexagonal lattice, centered."""
    sites = [(0.0, 0.0)]
    shell = 1
    while len(sites) < n_ions:
        corners = [
            (shell * math.cos(k * math.pi / 3.0), shell * math.sin(k * math.pi / 3.0))
            for k in range(6)
        ]
        for k in range(6):
            x0, y0 = corners[k]
            x1, y1 = corners[(k + 1) % 6]
            for step in range(shell):
                t = step / shell
                sites.append((x0 + (x1 - x0) * t, y0 + (y1 - y0) * t))
        shell += 1
    sites = np.array(sites[:n_ions])
    return sites - sites.mean(axis=0)


def _seed_spacing(setup: TrapSetup, p_theta):
    """Spacing and anisotropy of the hexagonal lattice that carries P_theta.

    With positions a L (L the unit-spacing lattice), uniform-dilation
    stationarity gives the virial anisotropy beta(a) = V_C(L) / (alpha_z^2
    I(L) a^3), and the rigid rotor at that beta carries

        P_theta(a) = (a^2 I(L) / 2) sqrt(1 - 4 alpha_z^2 (beta(a) + 1/2)),

    which rises from 0 at a_min, where beta(a_min) = beta_max.  Returns
    (a, beta(a)) at the root of P_theta(a) = |p_theta|.
    """
    from scipy.optimize import brentq

    alpha_z = setup.axial_ratio
    beta_max = beta_from_ratio(0.5, alpha_z)
    lattice = hex_lattice(setup.ion_count)
    inertia = float(np.sum(lattice**2))
    if inertia <= 0.0:  # a single ion: no Coulomb scale
        return 1.0, beta_max
    beta_unit = _implied_anisotropy(lattice, alpha_z)

    def beta_at(a):
        return beta_unit / a**3

    def mismatch(a):
        s2 = max(1.0 - 4.0 * alpha_z**2 * (beta_at(a) + 0.5), 0.0)
        return 0.5 * a**2 * inertia * math.sqrt(s2) - abs(p_theta)

    a_min = (beta_unit / beta_max) ** (1.0 / 3.0)
    if p_theta == 0.0:
        return a_min, beta_max
    a_hi = 2.0 * a_min
    while mismatch(a_hi) < 0.0:
        a_hi *= 2.0
    a = brentq(mismatch, a_min, a_hi, xtol=1e-12 * a_hi)
    return a, beta_at(a)


def _seed_positions(setup: TrapSetup, p_theta):
    """Planar hexagonal lattice at the virial spacing of ``_seed_spacing``."""
    n = setup.ion_count
    spacing, _ = _seed_spacing(setup, p_theta)
    positions = np.zeros((n, 3))
    positions[:, :2] = spacing * hex_lattice(n)
    return positions


def anneal(setup: TrapSetup, p_theta, schedule: AnnealSchedule):
    """Multi-start L-BFGS search of the reduced energy at fixed P_theta.

    Each of the ``schedule.cycles`` starts is a planar hexagonal seed at the
    virial spacing, jittered by ``schedule.step_size`` from
    ``schedule.seed``.  Each start runs L-BFGS-B with the analytic gradient
    for at most ``schedule.steps_per_cycle`` iterations at scipy's default
    tolerances, since Newton refinement finishes the job.  Those stop short
    of the basin minimum by more than the gaps between basins once N is
    about 60 or more, so the candidates' own energies do not rank their
    basins; ``find_equilibrium`` ranks them after refinement.  Returns one
    candidate per start, in start order.  Deterministic for a fixed
    schedule seed.
    """
    from scipy.optimize import minimize

    alpha_z = setup.axial_ratio
    n = setup.ion_count

    def objective(flat):
        pos = flat.reshape(n, 3)
        grad = reduced_energy_gradient(pos, p_theta, alpha_z)
        return reduced_energy(pos, p_theta, alpha_z), grad.reshape(-1)

    def search(start):
        if schedule.steps_per_cycle:
            result = minimize(objective, start.reshape(-1), jac=True, method="L-BFGS-B",
                              options={"maxiter": schedule.steps_per_cycle})
            start = result.x.reshape(n, 3)
        return CrystalState.at(start, rotation_frequency_from_ptheta(start, p_theta), alpha_z)

    lattice = _seed_positions(setup, p_theta)
    rng = np.random.default_rng(schedule.seed)
    return [search(lattice + schedule.step_size * rng.standard_normal((n, 3)))
            for _ in range(schedule.cycles)]


def newton_refine(candidate: CrystalState, grad_tol=1e-10) -> CrystalState:
    """Damped Newton minimization of the effective potential at fixed alpha_r.

    Energy never increases along the iteration (backtracking line search with
    a Levenberg shift when the Hessian is not positive definite; the shift
    carries over to the next iteration, a tenth smaller).  The global-rotation
    null direction t is removed with the rank-one projector 1 - t t^T.
    Converged means the full 3N gradient norm dropped below ``grad_tol``.  A
    planar-class crystal (beta < beta_c) that converges with small nonzero z
    is snapped to z = 0 once, and the loop restarts there with the energy
    recomputed, the shift reset and a fresh budget of ``_NEWTON_STEPS``.
    """
    from scipy.linalg import cho_solve

    alpha_r = candidate.rotation_frequency
    alpha_z = candidate.axial_ratio
    pos = candidate.positions.copy()
    n = len(pos)
    planar = stability_class(beta_from_ratio(alpha_r, alpha_z), n) is StabilityClass.PLANAR_2D
    energy = effective_potential(pos, alpha_r, alpha_z)
    shift = 0.0
    iterations, limit, snapped = 0, _NEWTON_STEPS, False
    while True:
        gflat = effective_potential_gradient(pos, alpha_r, alpha_z).reshape(-1)
        converged = float(np.linalg.norm(gflat)) < grad_tol
        if converged and planar and not snapped and 0.0 < np.abs(pos[:, 2]).max() < 1e-4:
            pos[:, 2] = 0.0
            energy = effective_potential(pos, alpha_r, alpha_z)
            shift, limit, snapped = 0.0, iterations + _NEWTON_STEPS, True
            continue
        if converged or iterations == limit:
            break
        hess = effective_potential_hessian(pos, alpha_r, alpha_z)
        scale = float(np.abs(np.diag(hess)).max()) or 1.0
        axis = np.column_stack([-pos[:, 1], pos[:, 0], np.zeros(n)]).ravel()
        if axis @ axis > 0.0:
            # (1 - t t^T) H (1 - t t^T), with curvature `scale` along t
            axis = axis / np.linalg.norm(axis)
            ht = hess @ axis
            hess -= np.outer(axis, ht - (axis @ ht + scale) * axis) + np.outer(ht, axis)
        diagonal = np.diag(hess).copy()
        for _ in range(30):
            try:
                np.fill_diagonal(hess, diagonal + shift)
                chol = np.linalg.cholesky(hess)
                break
            except np.linalg.LinAlgError:
                shift = max(2.0 * shift, 1e-12 * scale) * 10.0
        else:
            break
        step = cho_solve((chol, True), -gflat).reshape(n, 3)
        shift = 0.1 * shift if shift > 1e-11 * scale else 0.0
        slope = float(gflat @ step.reshape(-1))
        t = 1.0
        for _ in range(40):
            trial = pos + t * step
            try:
                etrial = effective_potential(trial, alpha_r, alpha_z)
            except ValueError:
                etrial = math.inf
            if etrial <= energy + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        pos, energy = trial, etrial
        iterations += 1

    # refinement runs at fixed alpha_r; the state's P_theta follows the positions
    return CrystalState.at(pos, alpha_r, alpha_z, converged, iterations)


def default_schedule(setup: TrapSetup, p_theta=0.0, seed=0) -> AnnealSchedule:
    """Search defaults: 12 starts of at most 1000 L-BFGS iterations each,
    jittered by a tenth of the virial lattice spacing."""
    spacing, _ = _seed_spacing(setup, p_theta)
    return AnnealSchedule(cycles=12, steps_per_cycle=1000, step_size=0.1 * spacing, seed=seed)


def find_equilibrium(setup: TrapSetup, p_theta, schedule: AnnealSchedule | None = None,
                     initial_positions=None, grad_tol=1e-10) -> CrystalState:
    """Self-consistent equilibrium at fixed canonical angular momentum.

    Unless seeded with initial positions, runs the multi-start search
    (``anneal``), refines every candidate and returns the refined crystal of
    lowest reduced energy; candidates whose refinement fails are skipped.
    The refinement is Newton at fixed rotation frequency inside a scalar
    root-find for the rotation frequency whose refined configuration carries
    the requested P_theta; its inner minimizations are warm-started with the
    exact planar scaling positions ~ beta^(-1/3), and each snaps a planar
    crystal to z = 0 with one restart of its Newton loop.
    """
    alpha_z = setup.axial_ratio
    mirror = p_theta < 0.0
    target = abs(p_theta)

    if initial_positions is not None:
        seeds = [np.array(initial_positions, dtype=float).reshape(setup.ion_count, 3)]
    else:
        if schedule is None:
            schedule = default_schedule(setup, target)
        seeds = [c.positions for c in anneal(setup, target, schedule)]

    solved, failure = [], None
    for seed in seeds:
        try:
            solved.append(_solve_at_fixed_ptheta(seed, target, alpha_z, grad_tol))
        except (RuntimeError, ValueError) as exc:
            failure = exc
    if not solved:
        raise RuntimeError(f"no search candidate could be refined ({failure})")
    final = min(solved, key=lambda state: reduced_energy(state.positions, target, alpha_z))

    if mirror:
        final = replace(
            final,
            rotation_frequency=1.0 - final.rotation_frequency,
            angular_momentum=-final.angular_momentum,
        )
    return final


def _implied_anisotropy(positions, alpha_z):
    """Virial estimate of the anisotropy a planar configuration equilibrates at.

    Uniform-dilation stationarity of (alpha_z^2 beta / 2) I + V_C gives
    beta = V_C / (alpha_z^2 I); used only to anchor warm starts.
    """
    inertia = float(np.sum(positions[:, 0] ** 2 + positions[:, 1] ** 2))
    if inertia <= 0.0:
        return beta_from_ratio(0.5, alpha_z)
    return max(coulomb_energy(positions) / (alpha_z**2 * inertia), 1e-300)


def _solve_at_fixed_ptheta(seed_positions, target, alpha_z, grad_tol):
    """Outer solve: rotation frequency whose refined crystal carries P_theta.

    One loop over one (positions, beta) pair, starting from the seed at its
    virial anisotropy: a closed-form solve of the scaling model
    I(beta) = I_a (beta_a / beta)^(2/3) anchored on the pair picks the next
    alpha_r, the positions are rescaled by (beta_a / beta)^(1/3) and Newton
    refinement at that alpha_r gives the next pair.  For planar crystals the
    model is exact, so the iteration converges in a couple of refinements.
    P_theta = 0 is the one-refinement case alpha_r = 1/2.  The returned
    state's ``refine_iterations`` counts the Newton steps of every refinement.
    """
    from scipy.optimize import brentq

    beta_max = beta_from_ratio(0.5, alpha_z)
    positions = np.array(seed_positions, dtype=float)
    beta = _implied_anisotropy(positions, alpha_z)
    steps = 0
    for _ in range(80):
        if target == 0.0:
            s_next = 0.0
        else:
            inertia = float(np.sum(positions[:, 0] ** 2 + positions[:, 1] ** 2))

            def model(s):
                ratio = beta / (beta_max - s**2 / alpha_z**2)
                return inertia * ratio ** (2.0 / 3.0) * s - target

            s_max = alpha_z * math.sqrt(beta_max) * (1.0 - 1e-12)
            # keep each step within a bounded anisotropy move from the anchor
            lo = alpha_z * math.sqrt(max(beta_max - min(beta * 64.0, beta_max), 0.0))
            hi = min(alpha_z * math.sqrt(beta_max - beta / 64.0), s_max)
            lo = min(max(lo, 1e-300), hi)
            if model(lo) >= 0.0:
                s_next = lo
            elif model(hi) <= 0.0:
                s_next = hi
            else:
                s_next = brentq(model, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
        alpha_r = 0.5 - s_next
        beta_next = beta_from_ratio(alpha_r, alpha_z)
        if beta_next <= 0.0:
            raise ValueError("rotation frequency outside the confined window")
        if beta_next != beta:
            positions = positions * (beta / beta_next) ** (1.0 / 3.0)
        state = newton_refine(CrystalState.at(positions, alpha_r, alpha_z), grad_tol=grad_tol)
        if not state.converged:
            raise RuntimeError(f"Newton refinement failed at alpha_r = {alpha_r}")
        steps += state.refine_iterations
        positions, beta = state.positions, state.anisotropy
        if abs(state.angular_momentum - target) <= 1e-10 * max(target, 1.0):
            return replace(state, refine_iterations=steps)
    raise RuntimeError("angular-momentum matching did not converge")
