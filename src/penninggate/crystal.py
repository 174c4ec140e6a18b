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
and Hessians take positions of shape (N, d), or (K, N, d) for a stack of K
candidates.  The refinement runs all candidates in lock-step, one Newton
step of each per pass; each candidate's refined crystal is bit for bit the
one it gets alone, since candidates that tie in reduced energy to the last
ulp are common and their last bits pick the crystal that is kept.
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
_STACK_BYTES = 1 << 19  # Hessians of one lock-step Newton pass, within a core's L2 cache


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
        dist = _pair_distances(positions)
        beta = beta_from_ratio(alpha_r, axial_ratio)
        energy = _finite(_effective_potential(positions, beta, axial_ratio, dist))
        return cls._held(positions, alpha_r, axial_ratio, dist**-3, energy, converged,
                         refine_iterations)

    @classmethod
    def _held(cls, positions, alpha_r, axial_ratio, inv3, energy, converged, refine_iterations):
        """``at`` from the inverse cubed pair distances and the energy of
        ``positions``, which the caller already holds."""
        positions = np.pad(positions, ((0, 0), (0, 3 - positions.shape[1])))
        grad = _gradient(positions, _trap_curvature(alpha_r, axial_ratio, 3), inv3)
        return cls(
            positions=positions,
            axial_ratio=axial_ratio,
            rotation_frequency=alpha_r,
            angular_momentum=total_angular_momentum(positions, alpha_r),
            anisotropy=beta_from_ratio(alpha_r, axial_ratio),
            energy=float(energy),
            converged=converged,
            gradient_norm=float(np.linalg.norm(grad)),
            refine_iterations=refine_iterations,
        )

    @property
    def n_ions(self) -> int:
        return self.positions.shape[0]

    def validate(self):
        """Check the internal consistency relations of the state, to 1e-12
        in beta and 1e-10 in P_theta, each relative to max(1, |value|); a NaN
        fails them."""
        beta = beta_from_ratio(self.rotation_frequency, self.axial_ratio)
        if not abs(beta - self.anisotropy) <= 1e-12 * max(1.0, abs(beta)):
            raise ValueError("anisotropy inconsistent with rotation frequency")
        ptheta = total_angular_momentum(self.positions, self.rotation_frequency)
        if not abs(ptheta - self.angular_momentum) <= 1e-10 * max(1.0, abs(ptheta)):
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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _pair_distances(positions):
    """Pair distances, shape (..., N, N) for positions (..., N, d), with
    infinity on the diagonal; summed one axis at a time, which is cheaper
    than an (..., N, N, d) difference."""
    dist2 = (positions[..., :, None, 0] - positions[..., None, :, 0]) ** 2
    for mu in range(1, positions.shape[-1]):
        dist2 += (positions[..., :, None, mu] - positions[..., None, :, mu]) ** 2
    dist = np.sqrt(dist2)
    _diagonal(dist)[...] = np.inf
    return dist


def _diagonal(matrices):
    """Writable view of the diagonal of each trailing (M, M) matrix."""
    return np.einsum("...ii->...i", matrices)


def _coulomb_energy(dist):
    """Coulomb energy of each candidate's (N, N) pair distances, infinite
    where two ions (nearly) coincide."""
    dist = dist.reshape(*dist.shape[:-2], -1)
    close = dist.min(axis=-1, initial=np.inf) < _MIN_SEPARATION
    if not close.any():
        return 0.5 * np.sum(1.0 / dist, axis=-1)
    # no 1/0 is formed for a candidate whose ions coincide
    energy = 0.5 * np.sum(1.0 / np.where(close[..., None], np.inf, dist), axis=-1)
    return np.where(close, np.inf, energy)


def _finite(energy) -> float:
    """One candidate's energy, or a ValueError where its ions coincide."""
    if energy == np.inf:
        raise ValueError("coincident ions: Coulomb energy singular")
    return float(energy)


def coulomb_energy(positions) -> float:
    return _finite(_coulomb_energy(_pair_distances(np.asarray(positions, dtype=float))))


def _trap_curvature(alpha_r, axial_ratio, dim):
    """Trap curvature along each of the first ``dim`` axes: alpha_z^2 (beta, beta, 1)."""
    beta = beta_from_ratio(alpha_r, axial_ratio)
    return axial_ratio**2 * np.array([beta, beta, 1.0])[:dim]


def _effective_potential(positions, beta, axial_ratio, dist):
    """Effective potential of each candidate at its anisotropy beta, of shape
    (K, 1) for a stack of K; infinite where two ions coincide."""
    r2 = positions[..., 0] ** 2 + positions[..., 1] ** 2
    z2 = positions[..., 2] ** 2 if positions.shape[-1] == 3 else 0.0
    trap = 0.5 * axial_ratio**2 * np.sum(z2 + beta * r2, axis=-1)
    return trap + _coulomb_energy(dist)


def effective_potential(positions, alpha_r, axial_ratio) -> float:
    """Corotating-frame effective potential at fixed rotation alpha_r.

    V = sum_k (alpha_z^2 / 2) (z_k^2 + beta r_k^2) + sum_{k<j} 1/d_kj, for
    positions of shape (N, 3) or in-plane positions of shape (N, 2).
    """
    positions = np.asarray(positions, dtype=float)
    return _finite(_effective_potential(positions, beta_from_ratio(alpha_r, axial_ratio),
                                        axial_ratio, _pair_distances(positions)))


def _gradient(positions, curvature, inv3):
    # sum_j (r_k - r_j) / d_kj^3
    return (positions * curvature[..., None, :]
            - (inv3.sum(axis=-1)[..., None] * positions - inv3 @ positions))


def _hessian(positions, curvature, dist, inv3, out=None):
    *lead, n, dim = positions.shape
    diff = [positions[..., :, None, a] - positions[..., None, :, a] for a in range(dim)]
    inv5 = dist**-5
    hess = np.empty((*lead, dim * n, dim * n)) if out is None else out
    hess = hess.reshape(*lead, n, dim, n, dim)
    for a in range(dim):
        for b in range(a, dim):
            block = (inv3 if a == b else 0.0) - 3.0 * (diff[a] * diff[b]) * inv5
            # the blocks are symmetric, so the column sums are the row sums
            trap = curvature[..., a, None] if a == b else 0.0
            _diagonal(block)[...] = trap - block.sum(axis=-2)
            hess[..., :, a, :, b] = block
            if a != b:
                hess[..., :, b, :, a] = block
    return hess.reshape(*lead, dim * n, dim * n)


def effective_potential_hessian(positions, alpha_r, axial_ratio):
    """Analytic Hessian of the effective potential, shape (dN, dN) for (N, d)
    positions, ordered ion by ion.  Each component pair (a, b) is one (N, N)
    block: the Coulomb dipole tensor delta_ab / d^3 - 3 r_a r_b / d^5 off the
    diagonal, and the trap curvature minus the row sum on it."""
    positions = np.asarray(positions, dtype=float)
    dist = _pair_distances(positions)
    curvature = _trap_curvature(alpha_r, axial_ratio, positions.shape[1])
    return _hessian(positions, curvature, dist, dist**-3)


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


def _reduced_energy(positions, p_theta, axial_ratio, dist) -> float:
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
    return trap + _finite(_coulomb_energy(dist)) + rot


def reduced_energy(positions, p_theta, axial_ratio) -> float:
    """Fixed-angular-momentum energy with the momenta eliminated.

    Minimizing this over positions is equivalent to the pair
    (minimize effective potential at alpha_r, match P_theta); the rotational
    kinetic term P^2 / (2 I) carries the angular-momentum constraint.
    Positions of shape (N, 3), or in-plane ones of shape (N, 2).
    """
    positions = np.asarray(positions, dtype=float)
    return _reduced_energy(positions, p_theta, axial_ratio, _pair_distances(positions))


def _reduced_objective(flat, p_theta, axial_ratio, dim):
    """``reduced_energy`` and its analytic gradient at the (N, dim) positions
    ``flat``, flattened, from one pass of pair distances.  At the alpha_r whose
    rigid rotor carries P_theta, alpha_z^2 beta = 2 kappa - P^2 / I^2, so the
    gradient is the effective-potential gradient there."""
    pos = flat.reshape(-1, dim)
    dist = _pair_distances(pos)
    curvature = _trap_curvature(rotation_frequency_from_ptheta(pos, p_theta), axial_ratio, dim)
    grad = _gradient(pos, curvature, dist**-3)
    return _reduced_energy(pos, p_theta, axial_ratio, dist), grad.reshape(-1)


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


def _brentq(f, xa, xb, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in the bracket [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A port of the C ``brentq`` behind ``scipy.optimize.brentq``, with its
    defaults: the same bracket bookkeeping, tests and steps in the same order
    of arithmetic, so it returns scipy's float without importing
    ``scipy.optimize``.  Its sign tests compare with 0, which is ``signbit``
    for the nonzero, non-NaN values they see.  As scipy's, it raises a
    ValueError for a same-sign bracket or a NaN value of f and a RuntimeError
    when ``maxiter`` steps do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless a short interpolated step is taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN, which bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _seed_spacing(setup: TrapSetup, p_theta) -> float:
    """Spacing of the hexagonal lattice that carries P_theta.

    With positions a L (L the unit-spacing lattice), uniform-dilation
    stationarity gives the virial anisotropy beta(a) = V_C(L) / (alpha_z^2
    I(L) a^3), and the rigid rotor at that beta carries

        P_theta(a) = (a^2 I(L) / 2) sqrt(1 - 4 alpha_z^2 (beta(a) + 1/2)),

    which rises from 0 at a_min, where beta(a_min) = beta_max.  Returns
    the root a of P_theta(a) = |p_theta|.
    """
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
    return _brentq(mismatch, a_min, a_hi, xtol=1e-12 * a_hi)


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

    def search(start):
        if schedule.steps_per_cycle:
            result = minimize(_reduced_objective, start.reshape(-1), args=(p_theta, alpha_z, dim),
                              jac=True, method="L-BFGS-B",
                              options={"maxiter": schedule.steps_per_cycle})
            start = result.x.reshape(n, dim)
        return CrystalState.at(start, rotation_frequency_from_ptheta(start, p_theta), alpha_z)

    rng = np.random.default_rng(schedule.seed)
    jitters = (_SEED_JITTER * spacing * rng.standard_normal((n, 3)) for _ in range(schedule.cycles))
    return [search(lattice[:, :dim] + jitter[:, :dim]) for jitter in jitters]


class _Refinement:
    """One candidate's damped Newton refinement at fixed alpha_r, which
    ``_refine_in_lockstep`` advances one step per pass; ``outcome`` is None
    while it runs, then the refined state or the ValueError that stopped it."""

    def __init__(self, positions, alpha_r, alpha_z):
        self.alpha_r, self.alpha_z = alpha_r, alpha_z
        self.beta = beta_from_ratio(alpha_r, alpha_z)
        self.planar = stability_class(self.beta, len(positions)) is StabilityClass.PLANAR_2D
        self.shift = 0.0
        self.iterations = 0
        self.outcome = None
        pos = np.array(positions, dtype=float)
        self.place(pos[:, :2].copy() if self.planar and not np.any(pos[:, 2]) else pos)

    def place(self, pos):
        # one pair-distance pass per position: an accepted trial's serve the next step
        self.pos, self.dist = pos, _pair_distances(pos)
        self.curvature = _trap_curvature(self.alpha_r, self.alpha_z, pos.shape[1])
        self.energy = _effective_potential(pos, self.beta, self.alpha_z, self.dist)
        if self.energy == np.inf:
            self.outcome = ValueError("coincident ions: Coulomb energy singular")

    def finish(self, converged, inv3):
        """Stop at the current position, whose inverse cubed distances are
        ``inv3``; the axial check of a converged planar crystal overwrites them."""
        self.outcome = CrystalState._held(self.pos, self.alpha_r, self.alpha_z, inv3, self.energy,
                                          converged, self.iterations)
        if self.planar and converged:
            # the axial block at z = 0: 1/d_kj^3 off the diagonal, alpha_z^2 - sum_j 1/d_kj^3 on it
            axial = inv3
            np.fill_diagonal(axial, self.alpha_z**2 - axial.sum(axis=1))
            try:
                np.linalg.cholesky(axial)
            except np.linalg.LinAlgError:
                n = len(axial)
                self.outcome = ValueError(
                    f"equilibrium: the planar crystal is a saddle along z: beta = {self.beta:.6g}, "
                    f"beta_c = {beta_critical(n):.6g} at N = {n}, lowest axial eigenvalue "
                    f"{np.linalg.eigvalsh(axial)[0]:.3e}")


def _newton_pass(runs, grad_tol, stack):
    """One Newton step of each of ``runs``, whose positions share one
    dimension d: the elementwise work on (K, ...) stacks, the factorizations,
    solves and dot products one candidate at a time where stacking would
    move their last bits.  The Hessians are formed in ``stack``, of at least
    K dN x dN matrices."""
    from scipy.linalg.lapack import dpotrs  # the solver of scipy.linalg.cho_solve

    dim, alpha_z = runs[0].pos.shape[1], runs[0].alpha_z
    pos = np.array([run.pos for run in runs])
    dist = np.array([run.dist for run in runs])
    beta = np.array([[run.beta] for run in runs])
    curvature = np.array([run.curvature for run in runs])
    inv3 = dist**-3
    grad = _gradient(pos, curvature, inv3).reshape(len(runs), -1)
    stepping = []
    for k, run in enumerate(runs):
        converged = float(np.linalg.norm(grad[k])) < grad_tol
        if converged and run.planar and dim == 3:
            # a start off the plane has relaxed onto it: finish in the plane
            run.place(run.pos[:, :2].copy())
        elif converged or run.iterations == _NEWTON_STEPS:
            run.finish(converged, inv3[k])
        else:
            stepping.append(k)
    if len(stepping) < len(runs):
        runs = [runs[k] for k in stepping]
        pos, dist, inv3, grad, curvature, beta = (
            array[stepping] for array in (pos, dist, inv3, grad, curvature, beta))
    if not runs:
        return

    hess = _hessian(pos, curvature, dist, inv3, stack[:len(runs)])
    count, size = grad.shape
    scale = np.abs(_diagonal(hess)).max(axis=1)
    scale[scale == 0.0] = 1.0
    # (1 - t t^T) H (1 - t t^T), with curvature `scale` along the rotation direction t
    axis = np.zeros_like(pos)
    axis[..., 0], axis[..., 1] = -pos[..., 1], pos[..., 0]
    axis = axis.reshape(count, size)
    ht, along = np.zeros_like(axis), np.zeros(count)
    for k in range(count):
        if axis[k] @ axis[k] > 0.0:
            axis[k] /= np.linalg.norm(axis[k])
            ht[k] = hess[k] @ axis[k]
            along[k] = axis[k] @ ht[k] + scale[k]
    hess -= (axis[:, :, None] * (ht - along[:, None] * axis)[:, None, :]
             + ht[:, :, None] * axis[:, None, :])

    # a Levenberg shift where H is not positive definite; it carries over to
    # the next step, a tenth smaller
    shifted = _diagonal(hess)
    diagonal = shifted.copy()
    step, slope = np.empty_like(grad), np.zeros(count)
    for k, run in enumerate(runs):
        for _ in range(30):
            try:
                shifted[k] = diagonal[k] + run.shift
                chol = np.linalg.cholesky(hess[k])
                break
            except np.linalg.LinAlgError:
                run.shift = max(2.0 * run.shift, 1e-12 * scale[k]) * 10.0
        else:
            run.finish(False, inv3[k])
            continue
        step[k] = dpotrs(chol, -grad[k], lower=1)[0]
        run.shift = 0.1 * run.shift if run.shift > 1e-11 * scale[k] else 0.0
        slope[k] = grad[k] @ step[k]
    left = np.array([k for k, run in enumerate(runs) if run.outcome is None], dtype=int)

    # backtracking line search: each candidate halves its own step length t
    step = step.reshape(pos.shape)
    energy = np.array([run.energy for run in runs])
    if len(left) < count:
        pos, step, beta, energy, slope = (a[left] for a in (pos, step, beta, energy, slope))
    t = np.ones(len(left))
    for _ in range(40):
        if not len(left):
            return
        trial = pos + t[:, None, None] * step
        tdist = _pair_distances(trial)
        etrial = _effective_potential(trial, beta, alpha_z, tdist)
        accepted = etrial <= energy + 1e-4 * t * slope
        if accepted.any():
            for j in np.flatnonzero(accepted):
                run = runs[left[j]]
                run.pos, run.dist, run.energy = trial[j], tdist[j], etrial[j]
                run.iterations += 1
            if accepted.all():
                return
            rejected = ~accepted
            left, pos, step, beta, energy, slope, t = (
                a[rejected] for a in (left, pos, step, beta, energy, slope, t))
        t *= 0.5
    for k in left:
        runs[k].finish(False, inv3[k])


def _refine_in_lockstep(starts, alpha_rs, alpha_z, grad_tol=_GRAD_TOL):
    """``newton_refine`` of each start (N, 3) at its own alpha_r, all in one
    loop: every pass advances each unfinished candidate by one step, in
    groups of one dimension and of at most ``_STACK_BYTES`` of Hessians.
    Each candidate keeps its own shift, step length, step budget and snap to
    the plane, and its outcome (the refined state, or the ValueError that
    stopped it) is bit for bit the one it gets refined alone.  Returns the
    outcomes in start order."""
    runs = [_Refinement(pos, alpha_r, alpha_z) for pos, alpha_r in zip(starts, alpha_rs)]
    # one Hessian stack per dimension, which every pass reuses: Hessians formed
    # and freed pass by pass let the allocator hand their memory back to the
    # system and fault it in again (8,231 page faults in a lone N = 100
    # refinement, none with the reused stack)
    stacks = {}
    while live := [run for run in runs if run.outcome is None]:
        for dim in (2, 3):
            group = [run for run in live if run.pos.shape[1] == dim]
            if not group:
                continue
            size = group[0].pos.size
            per_pass = max(1, _STACK_BYTES // (8 * size**2))
            if dim not in stacks:
                stacks[dim] = np.empty((min(per_pass, len(runs)), size, size))
            for first in range(0, len(group), per_pass):
                _newton_pass(group[first:first + per_pass], grad_tol, stacks[dim])
    return [run.outcome for run in runs]


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
    axial Hessian block, which decouples at z = 0, or a ValueError.  This is
    the one-candidate case of the lock-step refinement that
    ``find_equilibrium`` runs on all its search candidates.
    """
    (outcome,) = _refine_in_lockstep([candidate.positions], [candidate.rotation_frequency],
                                     candidate.axial_ratio, grad_tol)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def find_equilibrium(setup: TrapSetup, p_theta, schedule: AnnealSchedule = AnnealSchedule(),
                     initial_positions=None) -> CrystalState:
    """Self-consistent equilibrium at fixed canonical angular momentum.

    Unless seeded with initial positions, runs the multi-start search
    (``anneal`` with ``schedule``, by default 12 starts of at most 1000
    L-BFGS iterations from seed 0), refines every candidate to a gradient
    norm below ``_GRAD_TOL`` and returns the refined crystal of lowest
    reduced energy; candidates whose refinement fails are skipped, and when
    all fail the error names the last failure in start order.
    The refinement is Newton at fixed rotation frequency inside a scalar
    root-find for the rotation frequency whose refined configuration carries
    the requested P_theta; its inner minimizations are warm-started with the
    exact planar scaling positions ~ beta^(-1/3), and all candidates step
    together.  Planar-class crystals are searched and refined in their 2N
    in-plane coordinates and come back with z exactly 0; a candidate that
    converges in the plane on a saddle along z is one whose refinement fails.
    """
    alpha_z = setup.axial_ratio
    mirror = p_theta < 0.0
    target = abs(p_theta)

    if initial_positions is not None:
        seeds = [np.array(initial_positions, dtype=float).reshape(setup.ion_count, 3)]
    else:
        seeds = [c.positions for c in anneal(setup, target, schedule)]

    outcomes = _solve_at_fixed_ptheta(seeds, target, alpha_z)
    solved = [state for state in outcomes if isinstance(state, CrystalState)]
    if not solved:
        raise RuntimeError(f"no search candidate could be refined ({outcomes[-1]})")
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


def _solve_at_fixed_ptheta(seeds, target, alpha_z):
    """Outer solve: per seed, the rotation frequency whose refined crystal
    carries P_theta.

    Each seed runs one loop over one (positions, beta) pair, starting from
    the seed at its virial anisotropy: the root of the scaling model
    I(beta) = I_a (beta_a / beta)^(2/3) anchored on the pair, bracketed and
    found by Brent's method (``_brentq``), picks the next alpha_r, the
    positions are rescaled by (beta_a / beta)^(1/3) and Newton refinement
    at that alpha_r gives the next pair.  For planar
    crystals the model is exact, so the iteration converges in a couple of
    refinements.  P_theta = 0 is the one-refinement case alpha_r = 1/2.  Each
    round refines every unmatched seed in one ``_refine_in_lockstep``.
    Returns per seed, in seed order, its matched state, whose
    ``refine_iterations`` counts the Newton steps of every refinement, or
    the RuntimeError or ValueError that stopped it.
    """
    positions = [np.array(seed, dtype=float) for seed in seeds]
    outcomes, betas, steps = [None] * len(seeds), [None] * len(seeds), [0] * len(seeds)
    for i, pos in enumerate(positions):
        try:
            betas[i] = _implied_anisotropy(pos, alpha_z)
        except ValueError as exc:
            outcomes[i] = exc
    for _ in range(80):
        active, alphas = [], []
        for i in (i for i, outcome in enumerate(outcomes) if outcome is None):
            try:
                alpha_r = _next_rotation_frequency(positions[i], betas[i], target, alpha_z)
            except (RuntimeError, ValueError) as exc:
                outcomes[i] = exc
                continue
            beta_next = beta_from_ratio(alpha_r, alpha_z)
            if beta_next != betas[i]:
                positions[i] = positions[i] * (betas[i] / beta_next) ** (1.0 / 3.0)
            active.append(i)
            alphas.append(alpha_r)
        if not active:
            break
        refined = _refine_in_lockstep([positions[i] for i in active], alphas, alpha_z)
        for i, alpha_r, state in zip(active, alphas, refined):
            if isinstance(state, ValueError):
                outcomes[i] = state
            elif not state.converged:
                outcomes[i] = RuntimeError(f"Newton refinement failed at alpha_r = {alpha_r}")
            else:
                steps[i] += state.refine_iterations
                positions[i], betas[i] = state.positions, state.anisotropy
                if abs(state.angular_momentum - target) <= 1e-10 * max(target, 1.0):
                    outcomes[i] = replace(state, refine_iterations=steps[i])
    return [RuntimeError("angular-momentum matching did not converge") if outcome is None
            else outcome for outcome in outcomes]


def _next_rotation_frequency(positions, beta, target, alpha_z):
    """The alpha_r at which the scaling model anchored on (positions, beta)
    carries ``target``, each step within a bounded anisotropy move."""
    beta_max = beta_from_ratio(0.5, alpha_z)
    if target == 0.0:
        s_next = 0.0
    else:
        inertia = float(np.sum(positions[:, 0] ** 2 + positions[:, 1] ** 2))

        def model(s):
            ratio = beta / (beta_max - s**2 / alpha_z**2)
            return inertia * ratio ** (2.0 / 3.0) * s - target

        s_max = alpha_z * math.sqrt(beta_max) * (1.0 - 1e-12)
        lo = alpha_z * math.sqrt(max(beta_max - min(beta * 64.0, beta_max), 0.0))
        hi = min(alpha_z * math.sqrt(beta_max - beta / 64.0), s_max)
        lo = min(max(lo, 1e-300), hi)
        if model(lo) >= 0.0:
            s_next = lo
        elif model(hi) <= 0.0:
            s_next = hi
        else:
            s_next = _brentq(model, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
    alpha_r = 0.5 - s_next
    if beta_from_ratio(alpha_r, alpha_z) <= 0.0:
        raise ValueError("rotation frequency outside the confined window")
    return alpha_r
