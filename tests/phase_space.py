"""Independent oracles for the phase-space Hamiltonian and its modes.

``build_hessian`` assembles the quadratic expansion of the full rotating-frame
Hamiltonian term by term; the tests differentiate it numerically instead.
At alpha_r = 1/2 positions and momenta decouple, and the orthogonal modes of
the potential curvature give the spectrum that ``williamson`` must reproduce.
"""

import numpy as np

from penninggate.crystal import coulomb_energy, effective_potential_hessian
from penninggate.modes import minimal_coupling_rate


def phase_space_hamiltonian(positions, momenta, alpha_r, axial_ratio) -> float:
    """Full dimensionless rotating-frame Hamiltonian H(q, p)."""
    q = np.asarray(positions, dtype=float)
    p = np.asarray(momenta, dtype=float)
    omega = minimal_coupling_rate(alpha_r)
    kinetic = 0.5 * float(np.sum(p**2))
    coupling = omega * float(np.sum(q[:, 1] * p[:, 0] - q[:, 0] * p[:, 1]))
    r2 = q[:, 0] ** 2 + q[:, 1] ** 2
    trap = float(
        np.sum(0.5 * axial_ratio**2 * q[:, 2] ** 2 + (1.0 - 2.0 * axial_ratio**2) / 8.0 * r2)
    )
    return kinetic + coupling + trap + coulomb_energy(q)


def equilibrium_momenta(positions, alpha_r):
    """Canonical momenta of the rigid equilibrium in the corotating frame."""
    q = np.asarray(positions, dtype=float)
    omega = minimal_coupling_rate(alpha_r)
    p = np.zeros_like(q)
    p[:, 0] = -omega * q[:, 1]
    p[:, 1] = omega * q[:, 0]
    return p


def orthogonal_modes(state):
    """Orthogonal normal modes in the minimal-coupling-free frame alpha_r = 1/2:
    (frequencies, M), ascending, with M orthogonal and rows as mode vectors
    Q = M q.  Unregularized, so the crystal rotation is a zero mode."""
    assert abs(state.rotation_frequency - 0.5) <= 1e-12, "orthogonal modes need alpha_r = 1/2"
    evals, evecs = np.linalg.eigh(effective_potential_hessian(state.positions, 0.5,
                                                              state.axial_ratio))
    assert evals[0] > -1e-10, f"potential Hessian has a negative curvature: {evals[0]:.3e}"
    return np.sqrt(np.clip(evals, 0.0, None)), evecs.T
