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

A planar-class crystal (beta < beta_c(N)) is searched and refined in its
d = 2 in-plane coordinates, any other in d = 3: the potentials, gradients
and Hessians take positions of shape (N, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scales import TrapSetup, beta_critical, beta_from_ratio, stability_class, StabilityClass

_MIN_SEPARATION = 1e-9
_NEWTON_STEPS = 200  # Newton step budget of a refinement
_GRAD_TOL = 1e-10    # gradient norm below which a refinement has converged
_SEED_JITTER = 0.1   # seed jitter, in units of the virial lattice spacing


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
        P_theta, energy and gradient norm that follow from them; in-plane
        (N, 2) positions are placed at z = 0."""
        positions = np.asarray(positions, dtype=float)
        positions = np.pad(positions, ((0, 0), (0, 3 - positions.shape[1])))
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

    def validate(self):
        """Check the internal consistency relations of the state, to 1e-12
        in beta and 1e-10 in P_theta, each relative to max(1, |value|)."""
        beta = beta_from_ratio(self.rotation_frequency, self.axial_ratio)
        if abs(beta - self.anisotropy) > 1e-12 * max(1.0, abs(beta)):
            raise ValueError("anisotropy inconsistent with rotation frequency")
        ptheta = total_angular_momentum(self.positions, self.rotation_frequency)
        if abs(ptheta - self.angular_momentum) > 1e-10 * max(1.0, abs(ptheta)):
            raise ValueError("angular momentum inconsistent with positions")
        return True


@dataclass(frozen=True)
class AnnealSchedule:
    """Budget of the multi-start equilibrium search (``anneal``).

    ``cycles`` is the number of starts, one candidate each;
    ``steps_per_cycle`` caps the L-BFGS iterations of one start, and 0
    returns the starts unchanged; ``seed`` fixes the Gaussian jitter that
    ``anneal`` adds to every coordinate of the hexagonal seed.
    """

    cycles: int = 12
    steps_per_cycle: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycle count must be at least 1")
        if self.steps_per_cycle < 0:
            raise ValueError("steps per cycle must be nonnegative")


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


def _trap_curvature(alpha_r, axial_ratio, dim):
    """Trap curvature along each of the first ``dim`` axes: alpha_z^2 (beta, beta, 1)."""
    beta = beta_from_ratio(alpha_r, axial_ratio)
    return axial_ratio**2 * np.array([beta, beta, 1.0])[:dim]


def effective_potential(positions, alpha_r, axial_ratio) -> float:
    """Corotating-frame effective potential at fixed rotation alpha_r.

    V = sum_k (alpha_z^2 / 2) (z_k^2 + beta r_k^2) + sum_{k<j} 1/d_kj, for
    positions of shape (N, 3) or in-plane positions of shape (N, 2).
    """
    positions = np.asarray(positions, dtype=float)
    beta = beta_from_ratio(alpha_r, axial_ratio)
    r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
    z2 = positions[:, 2] ** 2 if positions.shape[1] == 3 else 0.0
    trap = 0.5 * axial_ratio**2 * float(np.sum(z2 + beta * r2))
    return trap + coulomb_energy(positions)


def effective_potential_gradient(positions, alpha_r, axial_ratio):
    """Analytic gradient of the effective potential, shape (N, d) for (N, d) positions."""
    positions = np.asarray(positions, dtype=float)
    grad = positions * _trap_curvature(alpha_r, axial_ratio, positions.shape[1])
    inv3 = _pair_distances(positions) ** -3
    # sum_j (r_k - r_j) / d_kj^3
    grad -= inv3.sum(axis=1)[:, None] * positions - inv3 @ positions
    return grad


def effective_potential_hessian(positions, alpha_r, axial_ratio):
    """Analytic Hessian of the effective potential, shape (dN, dN) for (N, d)
    positions, ordered ion by ion.  Each component pair (a, b) is one (N, N)
    block: the Coulomb dipole tensor delta_ab / d^3 - 3 r_a r_b / d^5 off the
    diagonal, and the trap curvature minus the row sum on it."""
    positions = np.asarray(positions, dtype=float)
    n, dim = positions.shape
    curvature = _trap_curvature(alpha_r, axial_ratio, dim)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = _pair_distances(positions)
    inv3, inv5 = dist**-3, dist**-5
    hess = np.empty((n, dim, n, dim))
    for a in range(dim):
        for b in range(a, dim):
            block = (inv3 if a == b else 0.0) - 3.0 * (diff[..., a] * diff[..., b]) * inv5
            # the blocks are symmetric, so the column sums are the row sums
            np.fill_diagonal(block, (curvature[a] if a == b else 0.0) - block.sum(axis=0))
            hess[:, a, :, b] = block
            hess[:, b, :, a] = block
    return hess.reshape(dim * n, dim * n)


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
    Positions of shape (N, 3), or in-plane ones of shape (N, 2).
    """
    positions = np.asarray(positions, dtype=float)
    r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
    z2 = positions[:, 2] ** 2 if positions.shape[1] == 3 else 0.0
    kappa = (1.0 - 2.0 * axial_ratio**2) / 8.0
    trap = float(np.sum(0.5 * axial_ratio**2 * z2 + kappa * r2))
    inertia = float(np.sum(r2))
    if p_theta == 0.0:
        rot = 0.0
    elif inertia <= 0.0:
        return math.inf
    else:
        rot = p_theta**2 / (2.0 * inertia)
    return trap + coulomb_energy(positions) + rot


def reduced_energy_gradient(positions, p_theta, axial_ratio):
    """Analytic gradient of ``reduced_energy``, shape (N, d) for (N, d) positions.

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


def _seed_spacing(setup: TrapSetup, p_theta) -> float:
    """Spacing of the hexagonal lattice that carries P_theta.

    With positions a L (L the unit-spacing lattice), uniform-dilation
    stationarity gives the virial anisotropy beta(a) = V_C(L) / (alpha_z^2
    I(L) a^3), and the rigid rotor at that beta carries

        P_theta(a) = (a^2 I(L) / 2) sqrt(1 - 4 alpha_z^2 (beta(a) + 1/2)),

    which rises from 0 at a_min, where beta(a_min) = beta_max.  Returns
    the root a of P_theta(a) = |p_theta|.
    """
    from scipy.optimize import brentq

    alpha_z = setup.axial_ratio
    beta_max = beta_from_ratio(0.5, alpha_z)
    lattice = hex_lattice(setup.ion_count)
    inertia = float(np.sum(lattice**2))
    if inertia <= 0.0:  # a single ion: no Coulomb scale
        return 1.0
    beta_unit = _implied_anisotropy(lattice, alpha_z)

    def mismatch(a):
        s2 = max(1.0 - 4.0 * alpha_z**2 * (beta_unit / a**3 + 0.5), 0.0)
        return 0.5 * a**2 * inertia * math.sqrt(s2) - abs(p_theta)

    a_min = (beta_unit / beta_max) ** (1.0 / 3.0)
    if p_theta == 0.0:
        return a_min
    a_hi = 2.0 * a_min
    while mismatch(a_hi) < 0.0:
        a_hi *= 2.0
    return brentq(mismatch, a_min, a_hi, xtol=1e-12 * a_hi)


def _seed_positions(setup: TrapSetup, p_theta):
    """Planar hexagonal lattice at the virial spacing of ``_seed_spacing``,
    and that spacing."""
    n = setup.ion_count
    spacing = _seed_spacing(setup, p_theta)
    positions = np.zeros((n, 3))
    positions[:, :2] = spacing * hex_lattice(n)
    return positions, spacing


def anneal(setup: TrapSetup, p_theta, schedule: AnnealSchedule):
    """Multi-start L-BFGS search of the reduced energy at fixed P_theta.

    Each of the ``schedule.cycles`` starts is a planar hexagonal seed at the
    virial spacing for this P_theta, with a Gaussian jitter of a tenth of
    that spacing (``_SEED_JITTER``) on every coordinate, drawn from
    ``schedule.seed``.  A seed whose virial anisotropy is planar-class
    (beta < beta_c(N)) is searched in its 2N in-plane coordinates: the
    jitter's z column is drawn and dropped, so the in-plane draws are those
    of a 3N search.  Each start runs L-BFGS-B with the analytic gradient for
    at most ``schedule.steps_per_cycle`` iterations at scipy's default
    tolerances, since Newton refinement finishes the job.  Those stop short
    of the basin minimum by more than the gaps between basins once N is
    about 60 or more, so the candidates' own energies do not rank their
    basins; ``find_equilibrium`` ranks them after refinement.  Returns one
    candidate per start, in start order.  Deterministic for a fixed schedule
    seed.
    """
    from scipy.optimize import minimize

    alpha_z = setup.axial_ratio
    n = setup.ion_count
    lattice, spacing = _seed_positions(setup, p_theta)
    planar = stability_class(_implied_anisotropy(lattice, alpha_z), n) is StabilityClass.PLANAR_2D
    dim = 2 if planar else 3

    def objective(flat):
        pos = flat.reshape(n, dim)
        grad = reduced_energy_gradient(pos, p_theta, alpha_z)
        return reduced_energy(pos, p_theta, alpha_z), grad.reshape(-1)

    def search(start):
        if schedule.steps_per_cycle:
            result = minimize(objective, start.reshape(-1), jac=True, method="L-BFGS-B",
                              options={"maxiter": schedule.steps_per_cycle})
            start = result.x.reshape(n, dim)
        return CrystalState.at(start, rotation_frequency_from_ptheta(start, p_theta), alpha_z)

    rng = np.random.default_rng(schedule.seed)
    jitters = (_SEED_JITTER * spacing * rng.standard_normal((n, 3)) for _ in range(schedule.cycles))
    return [search(lattice[:, :dim] + jitter[:, :dim]) for jitter in jitters]


def newton_refine(candidate: CrystalState, grad_tol=_GRAD_TOL) -> CrystalState:
    """Damped Newton minimization of the effective potential at fixed alpha_r.

    Energy never increases along the iteration (backtracking line search with
    a Levenberg shift when the Hessian is not positive definite; the shift
    carries over to the next iteration, a tenth smaller).  The global-rotation
    null direction t is removed with the rank-one projector 1 - t t^T.
    Converged means the gradient norm dropped below ``grad_tol`` within
    ``_NEWTON_STEPS`` steps.  A planar-class crystal (beta < beta_c(N)) is
    refined in its 2N in-plane coordinates and returned with z exactly 0; a
    start off the plane (a warm start from a 3D crystal, whose ions may
    overlap in projection) first converges in all 3N.  A converged planar
    crystal must be a minimum along z as well: one Cholesky of the N x N
    axial Hessian block, which decouples at z = 0, or a ValueError.
    """
    from scipy.linalg import cho_solve

    alpha_r = candidate.rotation_frequency
    alpha_z = candidate.axial_ratio
    n = candidate.n_ions
    planar = stability_class(beta_from_ratio(alpha_r, alpha_z), n) is StabilityClass.PLANAR_2D
    pos = candidate.positions.copy()
    if planar and not np.any(pos[:, 2]):
        pos = pos[:, :2].copy()
    energy = effective_potential(pos, alpha_r, alpha_z)
    shift = 0.0
    iterations = 0
    while True:
        gflat = effective_potential_gradient(pos, alpha_r, alpha_z).reshape(-1)
        converged = float(np.linalg.norm(gflat)) < grad_tol
        if converged and planar and pos.shape[1] == 3:
            # a start off the plane has relaxed onto it: finish in the plane
            pos = pos[:, :2].copy()
            energy = effective_potential(pos, alpha_r, alpha_z)
            continue
        if converged or iterations == _NEWTON_STEPS:
            break
        hess = effective_potential_hessian(pos, alpha_r, alpha_z)
        scale = float(np.abs(np.diag(hess)).max()) or 1.0
        axis = np.stack([-pos[:, 1], pos[:, 0], np.zeros(n)][:pos.shape[1]], axis=1).ravel()
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
        step = cho_solve((chol, True), -gflat).reshape(pos.shape)
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

    if planar and converged:
        # the axial block at z = 0: 1/d_kj^3 off the diagonal, alpha_z^2 - sum_j 1/d_kj^3 on it
        axial = _pair_distances(pos) ** -3
        np.fill_diagonal(axial, alpha_z**2 - axial.sum(axis=1))
        try:
            np.linalg.cholesky(axial)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"equilibrium: the planar crystal is a saddle along z: beta = "
                f"{beta_from_ratio(alpha_r, alpha_z):.6g}, beta_c = {beta_critical(n):.6g} at "
                f"N = {n}, lowest axial eigenvalue {np.linalg.eigvalsh(axial)[0]:.3e}") from None
    # refinement runs at fixed alpha_r; the state's P_theta follows the positions
    return CrystalState.at(pos, alpha_r, alpha_z, converged, iterations)


def find_equilibrium(setup: TrapSetup, p_theta, schedule: AnnealSchedule = AnnealSchedule(),
                     initial_positions=None) -> CrystalState:
    """Self-consistent equilibrium at fixed canonical angular momentum.

    Unless seeded with initial positions, runs the multi-start search
    (``anneal`` with ``schedule``, by default 12 starts of at most 1000
    L-BFGS iterations from seed 0), refines every candidate to a gradient
    norm below ``_GRAD_TOL`` and returns the refined crystal of lowest
    reduced energy; candidates whose refinement fails are skipped.
    The refinement is Newton at fixed rotation frequency inside a scalar
    root-find for the rotation frequency whose refined configuration carries
    the requested P_theta; its inner minimizations are warm-started with the
    exact planar scaling positions ~ beta^(-1/3).  Planar-class crystals are
    searched and refined in their 2N in-plane coordinates and come back with
    z exactly 0; a candidate that converges in the plane on a saddle along z
    is one whose refinement fails.
    """
    alpha_z = setup.axial_ratio
    mirror = p_theta < 0.0
    target = abs(p_theta)

    if initial_positions is not None:
        seeds = [np.array(initial_positions, dtype=float).reshape(setup.ion_count, 3)]
    else:
        seeds = [c.positions for c in anneal(setup, target, schedule)]

    solved, failure = [], None
    for seed in seeds:
        try:
            solved.append(_solve_at_fixed_ptheta(seed, target, alpha_z))
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


def _solve_at_fixed_ptheta(seed_positions, target, alpha_z):
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
        state = newton_refine(CrystalState.at(positions, alpha_r, alpha_z))
        if not state.converged:
            raise RuntimeError(f"Newton refinement failed at alpha_r = {alpha_r}")
        steps += state.refine_iterations
        positions, beta = state.positions, state.anisotropy
        if abs(state.angular_momentum - target) <= 1e-10 * max(target, 1.0):
            return replace(state, refine_iterations=steps)
    raise RuntimeError("angular-momentum matching did not converge")
