"""Ion species, trap parameters, and the dimensionless unit system.

Everything downstream works in trap-scaled units: lengths in the Coulomb
length ``l_s``, momenta in ``l_s * m * omega_c``, energies in the Coulomb
energy at distance ``l_s``, frequencies in units of the cyclotron frequency.
This module owns the closed-form relations between trap parameters and the
derived frequencies and stability quantities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from importlib import resources

import scipy.constants as const

BOHR_RADIUS = const.physical_constants["Bohr radius"][0]
ATOMIC_DIPOLE = const.e * BOHR_RADIUS  # e*a0 in C*m
BOHR_MAGNETON = const.physical_constants["Bohr magneton"][0]


@dataclass(frozen=True)
class IonSpecies:
    """Atomic data of one ion species, all in SI.

    ``fine_structure_splitting`` is DeltaE/hbar of the P doublet in rad/s,
    ``linewidth`` the natural linewidth Gamma in rad/s, ``omega_d1/omega_d2``
    the angular transition frequencies, and ``dipole_d1/dipole_d2`` the
    reduced dipole matrix elements in C*m.
    """

    name: str
    mass: float
    charge: float
    fine_structure_splitting: float
    linewidth: float
    omega_d1: float
    omega_d2: float
    dipole_d1: float
    dipole_d2: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("ion mass must be positive")
        if self.linewidth <= 0:
            raise ValueError("linewidth must be positive")
        if self.fine_structure_splitting <= 0:
            raise ValueError("fine-structure splitting must be positive")


@dataclass(frozen=True)
class SpeciesRecord:
    """One row of the shipped species table.

    Keeps the magnetic-field bounds of the linear Zeeman regime next to the
    atomic data; the bounds are tabulated values, not re-derived.
    """

    species: IonSpecies
    b_zeeman_max: float
    b_paschen_back_min: float


@dataclass(frozen=True)
class TrapSetup:
    """Penning trap working point for a single species crystal.

    ``cyclotron_frequency`` is omega_c = e B / m in rad/s and ``axial_ratio``
    is alpha_z = omega_z / omega_c.  The axial ratio must stay below
    1/sqrt(2), otherwise there is no radial confinement at all.
    """

    species: IonSpecies
    cyclotron_frequency: float
    axial_ratio: float
    ion_count: int

    def __post_init__(self):
        if not 0 < self.cyclotron_frequency < math.inf:
            raise ValueError(
                f"cyclotron_frequency must be positive and finite, got {self.cyclotron_frequency}")
        if not 0.0 < self.axial_ratio < 1.0 / math.sqrt(2.0):
            raise ValueError("axial ratio must satisfy 0 < alpha_z < 1/sqrt(2)")
        if self.ion_count < 1:
            raise ValueError("ion count must be at least 1")

    @property
    def magnetic_field(self):
        """Axial field B = m omega_c / e in tesla."""
        return self.species.mass * self.cyclotron_frequency / self.species.charge


@dataclass(frozen=True)
class ScaleSet:
    """Characteristic length / momentum / energy plus the dimensionless
    action quantum ``hbar_tilde = hbar / (l_s^2 m omega_c)`` that converts
    the classical dimensionless Hamiltonian into its quantized counterpart.
    """

    length: float
    momentum: float
    energy: float
    hbar_tilde: float

    def __post_init__(self):
        if min(self.length, self.momentum, self.energy, self.hbar_tilde) <= 0:
            raise ValueError("all scales must be positive")


@dataclass(frozen=True)
class TrapFrequencies:
    """Axial, in-plane, and magnetron frequencies in rad/s."""

    omega_z: float
    omega_xy: float
    omega_m: float


class StabilityClass(enum.Enum):
    UNCONFINED = "unconfined"
    PLANAR_2D = "planar2D"
    CONFINED_3D = "confined3D"


def derive_scales(setup: TrapSetup) -> ScaleSet:
    """Characteristic scales of the crystal problem.

    l_s = (e^2 / (4 pi eps0 m omega_c^2))^(1/3), p_s = l_s m omega_c,
    E_s = e^2 / (4 pi eps0 l_s).
    """
    m = setup.species.mass
    wc = setup.cyclotron_frequency
    coulomb = setup.species.charge**2 / (4.0 * math.pi * const.epsilon_0)
    length = (coulomb / (m * wc**2)) ** (1.0 / 3.0)
    momentum = length * m * wc
    energy = coulomb / length
    hbar_tilde = const.hbar / (length**2 * m * wc)
    return ScaleSet(length=length, momentum=momentum, energy=energy, hbar_tilde=hbar_tilde)


def trap_frequencies(setup: TrapSetup) -> TrapFrequencies:
    """Closed-form single-particle frequencies of the trap.

    omega_z = alpha_z omega_c, omega_xy = sqrt(omega_c^2 - 2 omega_z^2)/2,
    omega_m = omega_c/2 - omega_xy.
    """
    wc = setup.cyclotron_frequency
    wz = setup.axial_ratio * wc
    radicand = wc**2 - 2.0 * wz**2
    if radicand <= 0:
        raise ValueError("no radial confinement: alpha_z >= 1/sqrt(2)")
    wxy = 0.5 * math.sqrt(radicand)
    return TrapFrequencies(omega_z=wz, omega_xy=wxy, omega_m=0.5 * wc - wxy)


def beta_from_ratio(alpha_r: float, alpha_z: float) -> float:
    """Anisotropy beta as a function of alpha_r = omega_r/omega_c only."""
    return alpha_r * (1.0 - alpha_r) / alpha_z**2 - 0.5


def anisotropy(omega_r: float, setup: TrapSetup) -> float:
    """Anisotropy parameter beta = omega_r (omega_c - omega_r)/omega_z^2 - 1/2.

    omega_z is always recomputed from alpha_z * omega_c; feeding a rounded
    omega_z would visibly shift beta at the small values relevant here.
    """
    return beta_from_ratio(omega_r / setup.cyclotron_frequency, setup.axial_ratio)


def beta_critical(n_ions: int) -> float:
    """Planarity threshold beta_c = 0.665 / sqrt(N)."""
    if n_ions < 1:
        raise ValueError("ion count must be at least 1")
    return 0.665 / math.sqrt(n_ions)


def stability_class(beta: float, n_ions: int) -> StabilityClass:
    """Classify the rotating-frame confinement for a given anisotropy."""
    if beta <= 0:
        return StabilityClass.UNCONFINED
    if beta < beta_critical(n_ions):
        return StabilityClass.PLANAR_2D
    return StabilityClass.CONFINED_3D


def effective_radial_frequency(omega_r: float, setup: TrapSetup) -> float:
    """Effective radial frequency sqrt(omega_r (omega_c - omega_r) - omega_z^2 / 2)
    at rotation omega_r.

    This is the same expression as sqrt(omega_c^2 - delta^2 - 2 omega_z^2) / 2
    with delta = omega_c - 2 omega_r, since (omega_c^2 - delta^2) / 4 =
    omega_r (omega_c - omega_r); the product form keeps its digits when
    omega_r << omega_c, where the difference of squares cancels.
    """
    wc = setup.cyclotron_frequency
    wz = setup.axial_ratio * wc
    r2 = omega_r * (wc - omega_r) - 0.5 * wz**2
    if r2 < 0:
        raise ValueError("no effective radial confinement at this rotation frequency")
    return math.sqrt(r2)


def _species_from_row(row: dict) -> SpeciesRecord:
    species = IonSpecies(
        name=row["name"],
        mass=row["mass_u"] * const.atomic_mass,
        charge=const.e,
        fine_structure_splitting=row["de_trad"] * 1e12,
        linewidth=2.0 * math.pi * row["gamma_mhz"] * 1e6,
        omega_d1=2.0 * math.pi * const.c / (row["d1_nm"] * 1e-9),
        omega_d2=2.0 * math.pi * const.c / (row["d2_nm"] * 1e-9),
        dipole_d1=row["m_d1_au"] * ATOMIC_DIPOLE,
        dipole_d2=row["m_d2_au"] * ATOMIC_DIPOLE,
    )
    return SpeciesRecord(
        species=species,
        b_zeeman_max=row["b_zeeman_t"],
        b_paschen_back_min=row["b_pb_t"],
    )


_COLUMNS = (
    "name", "mass_u", "gamma_mhz", "de_trad", "d1_nm", "d2_nm",
    "m_d1_au", "m_d2_au", "b_zeeman_t", "b_pb_t",
)


def load_species_table() -> dict[str, SpeciesRecord]:
    """Parse the shipped species table into records keyed by ion name."""
    text = resources.files("penninggate.data").joinpath("species.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"malformed species row: {line!r}")
        row = {"name": parts[0]}
        row.update({key: float(val) for key, val in zip(_COLUMNS[1:], parts[1:])})
        table[row["name"]] = _species_from_row(row)
    return table


_SPECIES_CACHE: dict[str, SpeciesRecord] | None = None


def get_species(name: str) -> SpeciesRecord:
    """Look up one species record; raises KeyError for unknown ions."""
    global _SPECIES_CACHE
    if _SPECIES_CACHE is None:
        _SPECIES_CACHE = load_species_table()
    try:
        return _SPECIES_CACHE[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_CACHE))
        raise KeyError(f"unknown species {name!r}; table has: {known}") from None
