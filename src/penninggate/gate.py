"""Modulated-carrier two-qubit phase gate on top of a mode spectrum.

The drive is a state-dependent force on one nearest-neighbour ion pair,
directed along the pair separation, with a fast carrier cos(nu t) under a
Gaussian envelope.  Per-mode driven dynamics give the residual displacement
integrals, the accumulated two-qubit phase, the amplitude calibration for a
pi phase, and the thermal gate fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.constants as const
from scipy.special import dawsn, erfc

from .crystal import CrystalState
from .modes import ModeSpectrum
from .quadrature import grid_for_frequencies
from .scales import TrapSetup, derive_scales, trap_frequencies

SIGN_CONFIGS = {"00": (1.0, 1.0), "01": (1.0, -1.0), "10": (-1.0, 1.0), "11": (-1.0, -1.0)}
# largest window-truncation bound, relative to max |G_k|, at which the
# Gaussian carrier's phase kernel takes its closed form
_CLOSED_FORM_RTOL = 1e-10
# phase-kernel quadrature nodes per period of the fastest oscillation
_NODES_PER_PERIOD = 40
# Gauss-Legendre nodes per panel
_PANEL_ORDER = 16
# largest phase of the carrier transform's top frequency across half a panel
_TRANSFORM_HALF_PANEL_PHASE = 6.0
# least sampled-profile density per modulation period
_PROFILE_SAMPLES_PER_PERIOD = 40


@dataclass(frozen=True)
class GateSpec:
    """Force and pulse parameters of one gate run.

    ``carrier_frequency`` is the physical modulation nu in rad/s, times are
    seconds.  The Gaussian envelope is centred in the gate window, by default
    with width gate_time/9, which suppresses the window-edge force below
    1e-8 of the peak.  ``profile``, an optional (times_s, values) pair,
    replaces the carrier by a sampled drive of at least 40 samples per
    modulation period.  How the drive is integrated is fixed by ``_Drive``.
    """

    target_pair: tuple
    carrier_frequency: float
    gate_time: float
    envelope_width: float | None = None
    amplitude: float = 1.0
    profile: object = None   # optional (times_s, values) drive replacing the carrier

    _WIDTH_FRACTION = 1.0 / 9.0  # edge force < 1e-8 of peak

    def __post_init__(self):
        j1, j2 = self.target_pair
        if j1 == j2:
            raise ValueError("target pair must be two distinct ions")
        if self.carrier_frequency <= 0 or self.gate_time <= 0:
            raise ValueError("carrier frequency and gate time must be positive")
        if self.envelope_width is not None and self.envelope_width <= 0:
            raise ValueError("envelope width must be positive")

    @property
    def center(self) -> float:
        return 0.5 * self.gate_time

    @property
    def width(self) -> float:
        if self.envelope_width is None:
            return self._WIDTH_FRACTION * self.gate_time
        return self.envelope_width


@dataclass(frozen=True)
class GateResult:
    """Assembled outcome of a calibrated gate run: the pulse ``spec`` with its
    calibrated amplitude, the phases it accumulates and its thermal fidelity."""

    spec: GateSpec
    theta: float
    theta_by_state: dict
    fidelity_curve: list             # rows (T_K, F, branch)


@dataclass(frozen=True)
class _Drive:
    """The normalized drive c(t) of one gate run, in omega_c units, and its
    two integrals: the cos carrier under the Gaussian envelope, or the linear
    interpolant of ``samples`` = (times, values) for a sampled profile."""

    nu: float
    tau: float
    center: float
    width: float
    samples: tuple | None

    @classmethod
    def of(cls, spec: GateSpec, setup: TrapSetup) -> _Drive:
        wc = setup.cyclotron_frequency
        nu = spec.carrier_frequency / wc
        samples = None
        if spec.profile is not None:
            times, values = spec.profile
            times = np.asarray(times, dtype=float) * wc
            period = 2.0 * math.pi / nu
            density = len(times) / (times[-1] - times[0]) * period if len(times) > 1 else 0.0
            if density < _PROFILE_SAMPLES_PER_PERIOD:
                raise ValueError(
                    "sampled drive under-resolved: need at least "
                    f"{_PROFILE_SAMPLES_PER_PERIOD} samples per modulation period"
                )
            samples = (times, np.asarray(values, dtype=float))
        return cls(nu, spec.gate_time * wc, spec.center * wc, spec.width * wc, samples)

    def __call__(self, times):
        if self.samples is not None:
            sample_times, values = self.samples
            return np.interp(times, sample_times, values, left=0.0, right=0.0)
        arg = times - self.center
        return np.cos(self.nu * arg) * np.exp(-((arg / self.width) ** 2))

    def grid(self, omegas):
        """The phase kernel's panels: _NODES_PER_PERIOD nodes on each period
        of the fastest of omegas and nu, which its within-panel interpolant
        needs."""
        fastest = max(float(np.max(omegas)), self.nu)
        return grid_for_frequencies(0.0, self.tau, fastest, _NODES_PER_PERIOD, _PANEL_ORDER)

    def transform_grid(self, omegas):
        """The transform's panels.  Under the Gaussian envelope the integrand
        c(t) exp(i omega t) oscillates at up to kappa = max(omega) + nu, and
        the panels hold kappa's phase across half a panel to
        _TRANSFORM_HALF_PANEL_PHASE, about 8.4 nodes per period of kappa.  A
        sampled profile is not band-limited and keeps the kernel's grid."""
        if self.samples is not None:
            return self.grid(omegas)
        kappa = float(np.max(omegas)) + self.nu
        nodes_per_period = _PANEL_ORDER * math.pi / _TRANSFORM_HALF_PANEL_PHASE
        return grid_for_frequencies(0.0, self.tau, kappa, nodes_per_period, _PANEL_ORDER)

    def transform(self, omegas, scale):
        """int_0^tau scale c(t) exp(i omega t) dt for each omega."""
        grid = self.transform_grid(omegas)
        return grid.fourier(scale * self(grid.flat_times), omegas)

    def kernel(self, omegas):
        """Real per-mode kernel G(omega) = int_0^tau dt c(t) int_0^t ds c(s)
        sin(omega (t - s)).  The Gaussian carrier takes the closed form
        whenever its window truncation bound is at most 1e-10 of the largest
        |G|; a sampled profile, or an envelope too wide for its window, takes
        the panel quadrature."""
        if self.samples is None:
            kernel, bound = self.gaussian_kernel(omegas)
            if bound.max() <= _CLOSED_FORM_RTOL * np.abs(kernel).max():
                return kernel
        return self.quadrature_kernel(omegas)

    def gaussian_kernel(self, omegas):
        """Infinite-line G of the Gaussian carrier and a bound on |Delta G|,
        the error of dropping the window [0, tau].

        With F Dawson's function and sigma the width,
        G = (sqrt(pi) sigma^2 / 2) [(F((w+nu) sigma/sqrt2) + F((w-nu) sigma/sqrt2)) / 2
        + exp(-nu^2 sigma^2 / 2) F(w sigma/sqrt2)].  The bound is
        T [|C(w)| + 3T/2], with T = sqrt(pi) sigma erfc(tau / (2 sigma)) >= int |c|
        outside the window of the centred envelope and
        |C(w)| = (sqrt(pi) sigma / 2)(e^(-(w-nu)^2 sigma^2/4) + e^(-(w+nu)^2 sigma^2/4))
        the carrier's Fourier magnitude.

        In the long-gate limit sigma -> infinity, G / int c^2 dt tends to
        w / (w^2 - nu^2), its relative error falling as 1/sigma^2.  So
        G / (2 hbar~ w int exp(-2 (t - t_c)^2 / sigma^2) dt) tends to the
        orthogonal-mode coefficients of the pair phase: the modulated
        -1/(4 hbar~ (nu^2 - w^2)) for a fast carrier, where cos^2 averages
        to 1/2, and the adiabatic 1/(2 hbar~ w^2) at nu = 0.
        """
        sigma, nu = self.width, self.nu
        x = np.asarray(omegas, dtype=float) * sigma / math.sqrt(2.0)
        y = nu * sigma / math.sqrt(2.0)
        kernel = 0.5 * math.sqrt(math.pi) * sigma**2 * (
            0.5 * (dawsn(x + y) + dawsn(x - y)) + math.exp(-y * y) * dawsn(x)
        )
        tail = math.sqrt(math.pi) * sigma * erfc(0.5 * self.tau / sigma)
        transform = 0.5 * math.sqrt(math.pi) * sigma * (
            np.exp(-0.5 * (x - y) ** 2) + np.exp(-0.5 * (x + y) ** 2)
        )
        return kernel, tail * (transform + 1.5 * tail)

    def quadrature_kernel(self, omegas):
        """G by panel quadrature of the running integral, for any drive."""
        grid = self.grid(omegas)
        return grid.phase_kernel(self(grid.flat_times), omegas)


def _pair_geometry(state: CrystalState, pair):
    j1, j2 = pair
    if not (0 <= j1 < state.n_ions and 0 <= j2 < state.n_ions):
        raise ValueError(f"target pair {tuple(pair)} lies outside the crystal: ion indices "
                         f"must be in [0, {state.n_ions})")
    sep = state.positions[j1, :2] - state.positions[j2, :2]
    dist = float(np.hypot(sep[0], sep[1]))
    if dist < 1e-12:
        raise ValueError("driven ions have zero in-plane separation")
    return sep / dist, dist


def _force_prefactor(spec: GateSpec, state, setup):
    """Scalar in front of the carrier in the dimensionless force magnitude."""
    scales = derive_scales(setup)
    freqs = trap_frequencies(setup)
    _, dist = _pair_geometry(state, spec.target_pair)
    omega_xy = freqs.omega_xy / setup.cyclotron_frequency
    return spec.amplitude * scales.hbar_tilde * omega_xy / dist


def pair_couplings(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState, setup: TrapSetup):
    """Per-mode complex coupling of the driven ions, shape (2, 3N), row r for
    ion ``spec.target_pair[r]``; includes the 1/sqrt(2 hbar~) normalization
    of the quantized drive but not the force magnitude."""
    if spectrum.reference.n_ions != state.n_ions:
        raise ValueError("spectrum and state disagree on the ion count")
    scales = derive_scales(setup)
    unit, _ = _pair_geometry(state, spec.target_pair)
    rows = spectrum.position_block.T
    x = 3 * np.asarray(spec.target_pair)
    return (unit[0] * rows[x] + unit[1] * rows[x + 1]) / math.sqrt(2.0 * scales.hbar_tilde)


def residual_displacement(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState,
                          setup: TrapSetup):
    """Per-mode residual displacement integrals of both driven ions, shape (2, 3N).

    Row r holds I_k = omega_k^(-1/2) * integral_0^tau exp(i omega_k t)
    alpha_k(t) dt with only ion ``spec.target_pair[r]``'s force and no qubit
    sign; linear in the amplitude.  The two ions differ only in their
    coupling, so one grid and one drive integral serve both.  Modes that
    neither ion couples to (the axial block of a planar crystal) are exact
    zeros and take no drive integral.
    """
    couplings = pair_couplings(spec, spectrum, state, setup)
    prefactor = _force_prefactor(spec, state, setup)
    bright = np.any(couplings != 0.0, axis=0)
    omegas = spectrum.frequencies[bright]
    integral = _Drive.of(spec, setup).transform(omegas, prefactor)
    out = np.zeros(couplings.shape, dtype=complex)
    out[:, bright] = couplings[:, bright] * integral / np.sqrt(omegas)
    return out


def phase_kernel(spec: GateSpec, spectrum: ModeSpectrum, setup: TrapSetup):
    """Real per-mode kernel G_k of the accumulated phase (``_Drive.kernel``);
    the phase of a drive alpha_k = A c(t) is |A|^2 G_k."""
    return _Drive.of(spec, setup).kernel(spectrum.frequencies)


@dataclass(frozen=True)
class PhaseResult:
    theta: float
    by_state: dict


def two_qubit_phase(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState,
                    setup: TrapSetup) -> PhaseResult:
    """Accumulated phases for the four logical states and their gate combination
    theta = theta_00 - theta_01 - theta_10 + theta_11.

    theta is formed as its algebraic equal |F|^2 sum_k 8 Re(w1 w2*) G_k, with
    the scalar force factor |F|^2 applied after the mode sum, so that theta
    scales with the amplitude as exactly as one product can.  The mode sum
    itself still cancels: at the fig4 point its terms reach about 1e4 while
    theta is pi."""
    kernel = phase_kernel(spec, spectrum, setup)
    w1, w2 = pair_couplings(spec, spectrum, state, setup)
    prefactor = _force_prefactor(spec, state, setup)
    by_state = {}
    for label, (s1, s2) in SIGN_CONFIGS.items():
        weights = s1 * w1 + s2 * w2
        by_state[label] = float(np.sum(np.abs(prefactor * weights) ** 2 * kernel))
    cross = 8.0 * np.real(w1 * np.conj(w2)) * kernel
    return PhaseResult(theta=float(abs(prefactor) ** 2 * cross.sum()), by_state=by_state)


def calibrated_phase(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState,
                     setup: TrapSetup):
    """Amplitude that makes |theta| equal pi, and the phases at it.

    Every phase scales as A^2, so one unit-amplitude probe (one phase
    kernel) gives both.
    """
    probe = two_qubit_phase(replace(spec, amplitude=1.0), spectrum, state, setup)
    if probe.theta == 0.0:
        raise ValueError("degenerate drive: unit-amplitude phase vanishes")
    amplitude = math.sqrt(math.pi / abs(probe.theta))
    scale = amplitude**2
    return amplitude, PhaseResult(
        theta=probe.theta * scale,
        by_state={label: value * scale for label, value in probe.by_state.items()},
    )


def calibrate_amplitude(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState,
                        setup: TrapSetup) -> float:
    """Dimensionless force amplitude that makes |theta| equal pi."""
    return calibrated_phase(spec, spectrum, state, setup)[0]


def thermal_weights(frequencies, temperatures, setup: TrapSetup):
    """Per-mode factors 1/(1 - exp(-hbar omega_k / k_B T)) with physical omega,
    shape (len(temperatures), len(frequencies)): ``temperatures`` is a
    sequence in K, and row i holds the factors at ``temperatures[i]``."""
    temperatures = np.asarray(temperatures, dtype=float)
    if not np.all((temperatures > 0) & np.isfinite(temperatures)):
        raise ValueError("temperature must be positive and finite")
    energies = const.hbar * np.asarray(frequencies) * setup.cyclotron_frequency
    return 1.0 / -np.expm1(-energies / (const.k * temperatures)[:, None])


def fidelity(residual_1, residual_2, amplitude, spectrum: ModeSpectrum,
             temperatures, setup: TrapSetup):
    """Thermal gate fidelity, worst case over the two sign branches.

    F = min_(+/-) prod_k exp[-(A^2/4) |I_k1 +/- I_k2|^2 / (1 - e^(-hbar
    omega_k / k_B T))]; the regularized rotation mode is not a physical
    oscillator and is excluded from the product.  ``temperatures`` is a
    sequence in K; the result is one row (T, F, branch) per temperature, in
    its order, with T a float and branch "+" on a tie.  Every row's
    exponents are formed in one array pass.
    """
    temps = [float(temp) for temp in temperatures]
    weights = thermal_weights(spectrum.frequencies, temps, setup)
    if spectrum.regularized_mode is not None:
        weights[:, spectrum.regularized_mode] = 0.0
    combos = np.stack([np.abs(residual_1 + sign * residual_2) ** 2 for sign in (1.0, -1.0)])
    exponents = amplitude**2 / 4.0 * np.sum(combos[:, None] * weights, axis=-1)
    # the larger exponent is the smaller F
    return [(temp, math.exp(-max(plus, minus)), "-" if minus > plus else "+")
            for temp, (plus, minus) in zip(temps, exponents.T.tolist())]


def fidelity_curve(spec: GateSpec, spectrum: ModeSpectrum, state: CrystalState,
                   setup: TrapSetup, temperatures, amplitude=None):
    """Fidelity vs temperature rows (T, F, branch) at the pulse's amplitude,
    or at ``amplitude`` when given.

    One drive integral gives both ions' residuals, and one array pass gives
    every temperature's thermal exponents.
    """
    amp = spec.amplitude if amplitude is None else amplitude
    res1, res2 = residual_displacement(replace(spec, amplitude=1.0), spectrum, state, setup)
    return fidelity(res1, res2, amp, spectrum, temperatures, setup)


@dataclass(frozen=True)
class LaserGeometry:
    """Standing-wave beam-pair geometry for the resource estimates."""

    waist: float          # m
    beam_angle: float     # rad, angle between the two wave vectors
    detuning: float       # rad/s
    wavelength: float     # m

    def __post_init__(self):
        if not 0.0 < self.beam_angle <= math.pi:
            raise ValueError("beam angle must lie in (0, pi]")
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.waist <= 0 or self.wavelength <= 0:
            raise ValueError("waist and wavelength must be positive")


@dataclass(frozen=True)
class LaserResources:
    power: float
    scattered_photons: float
    scattering_fidelity: float


def laser_resources(setup: TrapSetup, geometry: LaserGeometry, amplitude,
                    pair_separation) -> LaserResources:
    """Laser power and photon-scattering estimates for the calibrated push.

    ``pair_separation`` is the physical distance between the driven ions in
    meters.  Power grows with sin^2 of the half beam angle while the number
    of scattered photons shrinks with it, so the angle trades power against
    scattering error.
    """
    for name, value in (("amplitude", amplitude), ("pair_separation", pair_separation)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    species = setup.species
    freqs = trap_frequencies(setup)
    kappa = 2.0 * math.pi / geometry.wavelength
    power = (
        amplitude
        * freqs.omega_xy
        * geometry.detuning
        * const.hbar
        * const.c
        * kappa**2
        * geometry.waist**2
        * math.sin(0.5 * geometry.beam_angle) ** 2
        / (3.0 * species.linewidth * pair_separation)
    )
    n_phot = (
        math.sqrt(2.0)
        * math.pi**3
        * const.epsilon_0
        * const.c
        * species.mass**2
        * geometry.waist**2
        * freqs.omega_xy**4
        * pair_separation**3
        * math.sin(0.5 * geometry.beam_angle)
        / (3.0 * species.charge**2 * geometry.wavelength * power)
    )
    return LaserResources(
        power=power,
        scattered_photons=n_phot,
        scattering_fidelity=math.exp(-n_phot),
    )
