"""State-dependent dipole forces from D1/D2 laser pairs in a magnetic field.

The qubit lives in the two Zeeman sublevels of S_1/2; a force that flips sign
with the qubit state needs the linear Zeeman splitting, two detunings, and
the right polarization/intensity bookkeeping.  All force algebra is done on
coefficients multiplying the shared spatial-profile gradient: the quantities
``chi_d1 / chi_d2`` stand for M * E0^2 * grad(chi^2) of the corresponding
beam, and ``b_rate`` is the Zeeman rate mu_B B / hbar.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.constants as const

from .scales import BOHR_MAGNETON, SpeciesRecord

_MU_B = BOHR_MAGNETON


class Line(enum.Enum):
    D1 = "D1"
    D2 = "D2"


class Polarization(enum.Enum):
    SIGMA_MINUS = "sigma-"
    PI = "pi"
    SIGMA_PLUS = "sigma+"


class QubitState(enum.Enum):
    ZERO = "0"
    ONE = "1"


class Level(enum.Enum):
    S12 = "S_1/2"
    P12 = "P_1/2"
    P32 = "P_3/2"


class Regime(enum.Enum):
    ZEEMAN = "Zeeman"
    INTERMEDIATE = "intermediate"
    PASCHEN_BACK = "Paschen-Back"


class Scheme(enum.Enum):
    SAME_SIGMA_MINUS = "same-sigma-"
    SAME_SIGMA_PLUS = "same-sigma+"
    MIXED = "mixed"
    MIXED_P_HALF = "mixed-P1/2-only"


# level: orbital and total angular momentum (l, j); the spin is 1/2
_LEVEL_DATA = {Level.S12: (0, 0.5), Level.P12: (1, 0.5), Level.P32: (1, 1.5)}


def lande_g(l, s, j):
    """Lande factor g_J = 1 + [j(j+1) + s(s+1) - l(l+1)] / (2 j (j+1))."""
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2.0 * j * (j + 1))


def zeeman_shift(level: Level, m_j, field_t) -> float:
    """Linear Zeeman energy shift mu_B g_J m_j B in joules.

    The nuclear contribution is neglected (g_I is three orders of magnitude
    smaller).
    """
    l, j = _LEVEL_DATA[level]
    if abs(m_j) > j + 1e-12 or (2 * m_j) != int(round(2 * m_j)):
        raise ValueError(f"invalid m_j = {m_j} for {level.value}")
    return _MU_B * lande_g(l, 0.5, j) * m_j * field_t


def classify_regime(record: SpeciesRecord, field_t) -> Regime:
    """Zeeman / intermediate / Paschen-Back classification from tabulated bounds."""
    if field_t < 0:
        raise ValueError("field must be nonnegative")
    if field_t < record.b_zeeman_max:
        return Regime.ZEEMAN
    if field_t > record.b_paschen_back_min:
        return Regime.PASCHEN_BACK
    return Regime.INTERMEDIATE


@dataclass(frozen=True)
class ForceTerm:
    """One polarization/line/qubit-state entry of the force table.

    ``chi`` is the field-strength-squared gradient M E0^2 grad(chi^2) of the
    beam driving this line; ``b_rate`` = mu_B B / hbar.
    """

    line: Line
    polarization: Polarization
    qubit_state: QubitState
    detuning: float
    chi: float
    b_rate: float

    def check_detuning_chain(self, species_splitting=None):
        """Require |B-rate| << |detuning| (<< fine-structure splitting), where
        << means a factor of at least 10."""
        if abs(self.b_rate) * 10.0 > abs(self.detuning):
            raise ValueError("Zeeman rate not small against the detuning")
        if species_splitting is not None and abs(self.detuning) * 10.0 > species_splitting:
            raise ValueError("detuning not small against the fine-structure splitting")


# Denominators of the force table: coefficient c and rate combination such
# that f = sign * chi / (c * hbar * denominator(delta, B-rate)).
_FORCE_TABLE = {
    (Polarization.SIGMA_MINUS, Line.D1, QubitState.ZERO): None,
    (Polarization.SIGMA_MINUS, Line.D1, QubitState.ONE): (-1, 2.0, lambda d, b: 3 * d + 4 * b),
    (Polarization.SIGMA_MINUS, Line.D2, QubitState.ZERO): (-1, 4.0, lambda d, b: d + b),
    (Polarization.SIGMA_MINUS, Line.D2, QubitState.ONE): (-1, 4.0, lambda d, b: 3 * d + 5 * b),
    (Polarization.PI, Line.D1, QubitState.ZERO): (+1, 4.0, lambda d, b: 2 * b - 3 * d),
    (Polarization.PI, Line.D1, QubitState.ONE): (-1, 4.0, lambda d, b: 3 * d + 2 * b),
    (Polarization.PI, Line.D2, QubitState.ZERO): (+1, 2.0, lambda d, b: b - 3 * d),
    (Polarization.PI, Line.D2, QubitState.ONE): (-1, 2.0, lambda d, b: 3 * d + b),
    (Polarization.SIGMA_PLUS, Line.D1, QubitState.ZERO): (+1, 2.0, lambda d, b: 4 * b - 3 * d),
    (Polarization.SIGMA_PLUS, Line.D1, QubitState.ONE): None,
    (Polarization.SIGMA_PLUS, Line.D2, QubitState.ZERO): (+1, 4.0, lambda d, b: 5 * b - 3 * d),
    (Polarization.SIGMA_PLUS, Line.D2, QubitState.ONE): (+1, 4.0, lambda d, b: b - d),
}


def dipole_force(term: ForceTerm, record: SpeciesRecord | None = None) -> float:
    """Signed dipole force of one table entry, in the units of chi / (hbar rad/s).

    When a species record is supplied, the magnetic field implied by the
    Zeeman rate is checked against the tabulated regime bounds: in the
    Paschen-Back regime both qubit states see identical light shifts and no
    state-dependent force exists.
    """
    if record is not None:
        field_t = abs(term.b_rate) * const.hbar / _MU_B
        if classify_regime(record, field_t) is Regime.PASCHEN_BACK:
            raise ValueError("state-dependent force unavailable in the Paschen-Back regime")
    entry = _FORCE_TABLE[(term.polarization, term.line, term.qubit_state)]
    if entry is None:
        return 0.0
    sign, coeff, denom = entry
    d = denom(term.detuning, term.b_rate)
    if d == 0.0:
        raise ZeroDivisionError("force denominator vanishes: detuning resonant with shift")
    return sign * term.chi / (coeff * const.hbar * d)


# Beams 1 and 2 of each scheme on the plus (sigma+ style) half-period, as
# (line, polarization); beam 1 carries delta_1 and chi_1, beam 2 delta_2 and
# chi_2.  The minus half-period swaps sigma+ and sigma- on both beams.
_SIGMA_PLUS, _SIGMA_MINUS = Polarization.SIGMA_PLUS, Polarization.SIGMA_MINUS
_PLUS_BRANCH_BEAMS = {
    Scheme.SAME_SIGMA_PLUS: ((Line.D1, _SIGMA_PLUS), (Line.D2, _SIGMA_PLUS)),
    Scheme.SAME_SIGMA_MINUS: ((Line.D1, _SIGMA_MINUS), (Line.D2, _SIGMA_MINUS)),
    Scheme.MIXED: ((Line.D1, _SIGMA_PLUS), (Line.D2, _SIGMA_MINUS)),
    Scheme.MIXED_P_HALF: ((Line.D1, _SIGMA_PLUS), (Line.D1, _SIGMA_MINUS)),
}
_SWAP_CIRCULAR = {_SIGMA_PLUS: _SIGMA_MINUS, _SIGMA_MINUS: _SIGMA_PLUS}


def _branch_beams(scheme: Scheme, branch):
    """The (line, polarization) of beams 1 and 2 on one half-period;
    ``branch`` is +1 for the sigma+ style half-period and -1 for sigma-."""
    beams = _PLUS_BRANCH_BEAMS[scheme]
    if branch > 0:
        return beams
    return tuple((line, _SWAP_CIRCULAR[pol]) for line, pol in beams)


def _beam_forces(scheme: Scheme, branch, delta_1, delta_2, b_rate, chi_1=1.0, chi_2=1.0):
    """Force of beams 1 and 2 of one half-period on each qubit state."""
    return [
        {state: dipole_force(ForceTerm(line, pol, state, delta, chi, b_rate))
         for state in QubitState}
        for (line, pol), delta, chi in zip(_branch_beams(scheme, branch),
                                           (delta_1, delta_2), (chi_1, chi_2))
    ]


def _branch_forces(scheme: Scheme, branch, delta_1, delta_2, b_rate, chi_1, chi_2):
    """Per-state force of one half-period: the sum over its two beams."""
    first, second = _beam_forces(scheme, branch, delta_1, delta_2, b_rate, chi_1, chi_2)
    return {state: first[state] + second[state] for state in QubitState}


@dataclass(frozen=True)
class IntensityRatio:
    value: float
    physical: bool          # intensities must be positive: ratio must be > 0


def solve_intensity_ratio(scheme: Scheme, delta_1, delta_2, b_rate,
                          branch=+1) -> IntensityRatio:
    """Intensity ratio chi_1/chi_2 enforcing opposite forces on the two states.

    The force is linear in each intensity, so with F_i(s) the force of beam
    i at unit intensity on state s, f(0) + f(1) = 0 gives

        chi_1/chi_2 = -(F_2(0) + F_2(1)) / (F_1(0) + F_1(1)).

    For the same-polarization sigma+ pair this is the closed form

        chi_1/chi_2 = (4B - 3 d1)(2 d2 - 3B) / ((d2 - B)(3 d2 - 5B)).

    A detuning resonant with a Zeeman shift raises ZeroDivisionError.  A
    negative ratio cannot be realized with physical intensities and is
    flagged rather than silently accepted.
    """
    first, second = _beam_forces(scheme, branch, delta_1, delta_2, b_rate)
    denom = sum(first.values())
    if denom == 0.0:
        raise ZeroDivisionError("singular denominator in the intensity-ratio solve")
    value = -sum(second.values()) / denom
    return IntensityRatio(value=value, physical=value > 0.0)


@dataclass(frozen=True)
class PulseSegment:
    """One beam over one half-period of the sin^2(nu t) modulation."""

    start: float
    duration: float
    line: Line
    polarization: Polarization
    detuning: float
    peak_intensity: float     # chi units, always >= 0
    ratio_branch: str         # "+" or "-"


@dataclass(frozen=True)
class PulseSequence:
    """Alternating-polarization pulse train implementing the two force
    conditions: pointwise opposition between the qubit states and zero mean
    force per modulation period."""

    segments: list
    modulation: float          # nu, rad/s
    scheme: Scheme
    b_rate: float
    state_coefficients: dict   # branch -> {QubitState: force coefficient}

    @property
    def period(self):
        return 2.0 * math.pi / self.modulation

    @property
    def total_time(self):
        last = self.segments[-1]
        return last.start + last.duration

    def state_force(self, times):
        """Force on each qubit state at the sampled times (chi/hbar units)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        half = math.pi / self.modulation
        branch_sign = np.where((times // half).astype(int) % 2 == 0, 1, -1)
        envelope = np.sin(self.modulation * times) ** 2
        f0 = np.where(
            branch_sign > 0,
            self.state_coefficients["+"][QubitState.ZERO],
            self.state_coefficients["-"][QubitState.ZERO],
        )
        f1 = np.where(
            branch_sign > 0,
            self.state_coefficients["+"][QubitState.ONE],
            self.state_coefficients["-"][QubitState.ONE],
        )
        return f0 * envelope, f1 * envelope

    def sample_envelope(self, samples_per_period=40):
        """Uniform sampling contract for feeding the gate as a force profile."""
        n = int(math.ceil(samples_per_period * self.total_time / self.period))
        times = np.linspace(0.0, self.total_time, max(n, 2), endpoint=False)
        f0, f1 = self.state_force(times)
        return times, f0, f1


def build_pulse_sequence(scheme: Scheme, nu, n_periods, delta_1, delta_2, b_rate) -> PulseSequence:
    """Assemble the alternating-polarization pulse train of one scheme at unit peak intensity.

    Each half-period carries the sin^2(nu t) envelope with the branch's
    solved intensity ratio; the polarization switches at every intensity
    zero and the minus branch is rescaled so the period-average force on
    each state vanishes.
    """
    if n_periods < 1 or nu <= 0:
        raise ValueError("need a positive modulation frequency and period count")

    ratio_p = solve_intensity_ratio(scheme, delta_1, delta_2, b_rate, branch=+1)
    ratio_m = solve_intensity_ratio(scheme, delta_1, delta_2, b_rate, branch=-1)
    for branch, ratio in (("+", ratio_p), ("-", ratio_m)):
        if not ratio.physical:
            raise ValueError(
                f"branch {branch}: intensity ratio {ratio.value} is not realizable "
                "with positive intensities"
            )

    forces_p = _branch_forces(scheme, +1, delta_1, delta_2, b_rate, ratio_p.value, 1.0)
    forces_m = _branch_forces(scheme, -1, delta_1, delta_2, b_rate, ratio_m.value, 1.0)
    f0p = forces_p[QubitState.ZERO]
    f0m = forces_m[QubitState.ZERO]
    if f0p == 0.0 or f0m == 0.0:
        raise ValueError("degenerate scheme: zero state force on a branch")
    scale_m = -f0p / f0m
    if scale_m <= 0.0:
        raise ValueError(
            "the minus branch pushes the states the same way as the plus branch; "
            "choose detunings that reverse the force"
        )

    state_coefficients = {
        "+": forces_p,
        "-": {state: scale_m * val for state, val in forces_m.items()},
    }

    half = math.pi / nu
    segments = []
    for period in range(n_periods):
        for half_idx, (sign, branch, ratio, scale) in enumerate(
            ((+1, "+", ratio_p, 1.0), (-1, "-", ratio_m, scale_m))
        ):
            start = (2 * period + half_idx) * half
            for (line, pol), delta, rel in zip(_branch_beams(scheme, sign),
                                               (delta_1, delta_2), (ratio.value, 1.0)):
                segments.append(
                    PulseSegment(
                        start=start,
                        duration=half,
                        line=line,
                        polarization=pol,
                        detuning=delta,
                        peak_intensity=scale * abs(rel),
                        ratio_branch=branch,
                    )
                )
    return PulseSequence(
        segments=segments,
        modulation=nu,
        scheme=scheme,
        b_rate=b_rate,
        state_coefficients=state_coefficients,
    )


@dataclass(frozen=True)
class ConditionReport:
    opposition_residual: float
    mean_residual: dict


def verify_conditions(seq: PulseSequence) -> ConditionReport:
    """Numerical check of the two force conditions.

    Opposition: f^(0)(t) = -f^(1)(t) pointwise; zero mean: the per-period
    time integral of each state's force vanishes.  Residuals are relative to
    the peak force (and peak times period for the mean).
    """
    if not seq.segments:
        return ConditionReport(opposition_residual=0.0, mean_residual={"0": 0.0, "1": 0.0})
    period = seq.period
    n = 400
    # trapezoid on 2n uniform samples over one full period per branch pair
    times = np.linspace(0.0, period, 2 * n, endpoint=False) + period / (4 * n)
    f0, f1 = seq.state_force(times)
    peak = max(np.abs(f0).max(), np.abs(f1).max(), 1e-300)
    opposition = float(np.abs(f0 + f1).max() / peak)
    dt = period / (2 * n)
    mean = {
        "0": float(abs(np.sum(f0) * dt) / (peak * period)),
        "1": float(abs(np.sum(f1) * dt) / (peak * period)),
    }
    return ConditionReport(opposition_residual=opposition, mean_residual=mean)
