"""Quadratic expansion of the rotating-frame crystal Hamiltonian and its
symplectic (Williamson) normal modes.

Phase space is ordered as the interleaved vector
``d = (q_1x, p_1x, q_1y, p_1y, ..., q_Nz, p_Nz)`` so the symplectic form is
block diagonal with 2x2 blocks [[0, 1], [-1, 0]].  All quantities are
dimensionless: positions in l_s, momenta in p_s, frequencies in omega_c.

The decomposition first splits the regularized Hessian into the (q, p)
blocks that no entry couples.  A planar crystal (every z exactly 0, as the
in-plane refinement leaves it) has no in-plane/axial curvature, so it splits
into a 4N in-plane and a 2N axial block; a 3D crystal, where some pair of
ions differs in z, stays one 6N block.  Each block is factored H = L L^T
(Cholesky), the canonical pairs come from the real skew-tridiagonal
(Hessenberg) form of L^T J L, and S = D^(1/2) O^T L^(-1) gets one
symplectic polish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crystal import CrystalState, effective_potential_hessian
from .scales import TrapSetup

_SYMMETRY_TOL = 1e-12
_REGULARIZATION = 1e-8


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Phase-space Hessian of the rotating-frame Hamiltonian at equilibrium.

    ``reference`` may be None for synthetic quadratic forms (no rotational
    zero mode to regularize).
    """

    matrix: np.ndarray            # (6N, 6N) symmetric
    reference: CrystalState | None


@dataclass(frozen=True)
class ModeSpectrum:
    """Result of the symplectic diagonalization.

    ``symplectic`` is the matrix S with S J S^T = J and S H S^T equal to the
    diagonal of frequency pairs; ``coefficients`` holds
    A[k, j] = S[2k, j] + i S[2k+1, j] (0-based rows).  ``regularized_mode``
    marks the crystal-rotation mode whose zero frequency was lifted by the
    regularization shift; its frequency is an artifact of the regularization.
    """

    frequencies: np.ndarray       # (3N,) in omega_c units, ascending
    symplectic: np.ndarray        # (6N, 6N)
    coefficients: np.ndarray      # (3N, 6N) complex
    hessian: np.ndarray           # regularized matrix the decomposition used
    reference: CrystalState
    regularized_mode: int | None

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    def position_coefficients(self):
        """A restricted to position columns, shape (3N, 3N)."""
        return self.coefficients[:, 0::2]


def symplectic_form(n_dof: int):
    """Block-diagonal symplectic form J for n_dof (q, p) pairs."""
    out = np.zeros((2 * n_dof, 2 * n_dof))
    k = 2 * np.arange(n_dof)
    out[k, k + 1] = 1.0
    out[k + 1, k] = -1.0
    return out


def minimal_coupling_rate(alpha_r: float) -> float:
    """Coefficient of (y p_x - x p_y) in the dimensionless Hamiltonian.

    Vanishes in the special frame alpha_r = 1/2.
    """
    return 0.5 - alpha_r


def build_hessian(state: CrystalState) -> QuadraticHamiltonian:
    """Assemble the 6N x 6N phase-space Hessian around the equilibrium.

    Momentum-momentum entries are 1, the momentum-position cross terms carry
    the minimal-coupling rate, and the position block is the potential
    curvature (trap plus Coulomb dipole tensor).
    """
    if not state.converged:
        raise ValueError("refusing to expand around an unconverged configuration")
    n = state.n_ions
    alpha_r = state.rotation_frequency
    alpha_z = state.axial_ratio
    omega = minimal_coupling_rate(alpha_r)

    # Hess of the frame potential: effective-potential curvature plus the
    # centrifugal completion Omega^2 on the in-plane coordinates.
    qq = effective_potential_hessian(state.positions, alpha_r, alpha_z)
    inplane = np.flatnonzero(np.arange(3 * n) % 3 != 2)
    qq[inplane, inplane] += omega**2

    h = np.zeros((6 * n, 6 * n))
    h[0::2, 0::2] = qq
    h[1::2, 1::2] = np.eye(3 * n)
    x = 6 * np.arange(n)  # q_x of each ion; p_x, q_y, p_y follow
    h[x + 1, x + 2] += omega
    h[x + 2, x + 1] += omega
    h[x + 3, x] -= omega
    h[x, x + 3] -= omega
    return QuadraticHamiltonian(matrix=h, reference=state)


def _rotation_direction(positions, omega=None):
    """Unit phase-space direction of a rigid in-plane rotation, or None when
    every ion sits on the axis (no rotational freedom).

    Position entries are (-y_k, x_k, 0).  With ``omega`` the momentum entries
    carry the corotating shift -omega (x_k, y_k, 0), which makes it the
    null direction of the unregularized Hessian; without it they are 0.
    """
    q = np.asarray(positions, dtype=float)
    vec = np.zeros((len(q), 3, 2))  # (ion, axis, q or p): the interleaved order
    vec[:, 0, 0] = -q[:, 1]
    vec[:, 1, 0] = q[:, 0]
    if omega is not None:
        vec[:, :2, 1] = -omega * q[:, :2]
    vec = vec.ravel()
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return None
    return vec / norm


def _times_j(m):
    """m @ J for the interleaved symplectic form J, by column swaps."""
    out = np.empty_like(m)
    out[..., 0::2] = -m[..., 1::2]
    out[..., 1::2] = m[..., 0::2]
    return out


def _skew_gram(m):
    """m^T J m for the interleaved J: M - M^T with M = m_q^T m_p formed from
    the even (q) and odd (p) rows, half the work of a full product."""
    gram = m[0::2].T @ m[1::2]
    return gram - gram.T


def _decoupled_blocks(h):
    """Named phase-space index sets of the exactly decoupled blocks of h.

    Read as (x, y, z) per ion, the axial pairs (z_k, p_zk) split off when
    no entry of h couples them to the in-plane pairs, as for every planar
    crystal (z = 0 exactly); otherwise the whole space is one block.
    """
    n_dof = h.shape[0] // 2
    if n_dof % 3 == 0:
        axial = np.repeat(np.arange(n_dof) % 3 == 2, 2)
        if not h[np.ix_(axial, ~axial)].any():
            return [("in-plane", np.flatnonzero(~axial)), ("axial", np.flatnonzero(axial))]
    return [("full", np.arange(2 * n_dof))]


def _williamson_block(chol, name):
    """Frequencies (ascending) and symplectic S of one block H = L L^T.

    The real antisymmetric K = L^T J L has eigenvalues +/- i w and a
    Hessenberg form K = Q T Q^T that is tridiagonal with a zero diagonal and
    subdiagonal e.  The phases D_(i+1) = D_i i sign(e_i) (sign 0 taken as
    +1, where T splits) turn iT into the real symmetric tridiagonal with
    off-diagonal |e|; its eigenvectors z give those of iK as v = Q D z.  A
    unit v at +w satisfies v^T v' = 0 against every other positive-frequency
    eigenvector (v-bar lies at -w), degenerate ones included, so
    (sqrt2 Re v, -sqrt2 Im v) are orthonormal canonical pairs:
    O^T K O = diag(w) J.  Then S = D^(1/2) O^T L^(-1) gives S H S^T = D and
    S J S^T = J.
    """
    from scipy.linalg import eigh_tridiagonal, hessenberg, solve_triangular

    half = len(chol) // 2
    tri, q_matrix = hessenberg(_skew_gram(chol), calc_q=True)
    sub = np.diagonal(tri, -1)
    tvals, tvecs = eigh_tridiagonal(np.zeros(2 * half), np.abs(sub))
    freqs = tvals[half:]
    # D is real on even and i times real on odd rows; those real factors step
    # by sign(e_i) (-1)^i, so Re v and Im v are real products of Q and z
    steps = np.where(sub < 0.0, -1.0, 1.0) * (-1.0) ** np.arange(len(sub))
    vecs = np.cumprod(np.concatenate(([1.0], steps)))[:, None] * tvecs[:, half:]
    vecs *= np.sqrt(2.0 * freqs)
    # O D^(1/2), solved to the transpose S^T = L^(-T) O D^(1/2), whose rows
    # are the (q, p) coordinates that _skew_gram slices
    o_matrix = np.empty_like(chol)
    o_matrix[:, 0::2] = q_matrix[:, 0::2] @ vecs[0::2]
    o_matrix[:, 1::2] = -(q_matrix[:, 1::2] @ vecs[1::2])
    s_trans = solve_triangular(chol, o_matrix, trans="T", lower=True)

    # one first-order polish on the symplectic manifold: with the antisymmetric
    # defect E = S J S^T - J, the update (I + E J / 2) S cancels E to O(E^2);
    # transposed, S^T + S^T J E / 2
    jmat = symplectic_form(half)
    defect = _skew_gram(s_trans) - jmat
    s_trans = s_trans + 0.5 * _times_j(s_trans) @ defect

    resid_j = np.abs(_skew_gram(s_trans) - jmat).max()
    if resid_j > 1e-10:
        raise np.linalg.LinAlgError(
            f"symplectic residual too large in the {name} block: {resid_j:.3e}"
        )
    return freqs, s_trans.T


def williamson(qh: QuadraticHamiltonian) -> ModeSpectrum:
    """Williamson normal form of the (regularized) phase-space Hessian.

    Splits the Hessian into its exactly decoupled blocks (in-plane 4N and
    axial 2N for a planar crystal, one 6N block otherwise), decomposes each
    block on its own, and assembles the symplectic S with
    S H S^T = diag(w_1, w_1, ..., w_3N, w_3N) and S J S^T = J.
    """
    from scipy.linalg import cholesky

    h = np.asarray(qh.matrix, dtype=float)
    asym = h - h.T
    if asym.any():
        if np.abs(asym).max() > _SYMMETRY_TOL * max(1.0, np.abs(h).max()):
            raise ValueError("Hessian is not symmetric")
        h = h - 0.5 * asym

    direction = _rotation_direction(qh.reference.positions) if qh.reference is not None else None
    h_reg = h if direction is None else h + _REGULARIZATION * np.outer(direction, direction)

    blocks = [(name, idx, h_reg[np.ix_(idx, idx)]) for name, idx in _decoupled_blocks(h_reg)]
    factors, failed = [], []
    for name, _, block in blocks:
        try:
            factors.append(cholesky(block, lower=True))
        except np.linalg.LinAlgError:
            failed.append(f"{name} block has lowest eigenvalue {np.linalg.eigvalsh(block)[0]:.3e}")
    if failed:
        raise ValueError(
            "Hessian not positive definite beyond the rotational zero mode: " + "; ".join(failed)
        )

    freqs = []
    s_matrix = np.zeros_like(h_reg)
    row = 0
    for (name, idx, _), chol in zip(blocks, factors):
        block_freqs, block_s = _williamson_block(chol, name)
        s_matrix[row : row + len(idx), idx] = block_s
        freqs.append(block_freqs)
        row += len(idx)
    freqs = np.concatenate(freqs)
    coeffs = s_matrix[0::2, :] + 1j * s_matrix[1::2, :]

    regularized_mode = None
    if direction is not None:
        omega = minimal_coupling_rate(qh.reference.rotation_frequency)
        null = _rotation_direction(qh.reference.positions, omega)  # the rigid rotation
        lam = -_times_j(s_matrix @ _times_j(null))  # (S^-1)^T null = -J S J null
        weights = lam[0::2] ** 2 + lam[1::2] ** 2
        regularized_mode = int(np.argmax(weights))

    # deterministic order: ascending frequency, exact ties (degenerate cluster
    # members share one float) broken by the dominant coefficient index
    dominant = np.argmax(np.abs(coeffs), axis=1)
    order = np.lexsort((dominant, freqs))
    freqs = freqs[order]
    perm = np.empty(2 * len(order), dtype=int)
    perm[0::2] = 2 * order
    perm[1::2] = 2 * order + 1
    s_matrix = s_matrix[perm, :]
    coeffs = coeffs[order]
    if regularized_mode is not None:
        regularized_mode = int(np.where(order == regularized_mode)[0][0])

    return ModeSpectrum(
        frequencies=freqs,
        symplectic=s_matrix,
        coefficients=coeffs,
        hessian=h_reg,
        reference=qh.reference,
        regularized_mode=regularized_mode,
    )


@dataclass(frozen=True)
class BandClassification:
    """Per-mode band labels, band frequency intervals, and usable gaps."""

    labels: list
    intervals: dict
    gaps: list


def classify_bands(spectrum: ModeSpectrum, setup: TrapSetup) -> BandClassification:
    """Partition modes into axial / ExB / cyclotron bands.

    Axial character is decided by the displacement weight on z coordinates;
    in-plane modes split at the largest relative frequency gap into the low
    (ExB) and high (cyclotron) branch.  The regularized rotation mode does
    not contribute to band intervals.
    """
    weight = np.abs(spectrum.position_coefficients()) ** 2  # columns x, y, z per ion
    axial = weight[:, 2::3].sum(axis=1) > (weight[:, 0::3] + weight[:, 1::3]).sum(axis=1)

    labels = [""] * spectrum.n_modes
    inplane = []
    for k in range(spectrum.n_modes):
        if axial[k]:
            labels[k] = "axial"
        else:
            inplane.append(k)

    usable = [k for k in inplane if k != spectrum.regularized_mode]
    if len(usable) >= 2:
        freqs = spectrum.frequencies[usable]
        order = np.argsort(freqs)
        sorted_f = freqs[order]
        ratios = sorted_f[1:] / np.maximum(sorted_f[:-1], 1e-300)
        split = int(np.argmax(ratios)) + 1
        low = {usable[order[i]] for i in range(split)}
        for k in inplane:
            labels[k] = "ExB" if (k in low or k == spectrum.regularized_mode) else "cyclotron"
    else:
        for i, k in enumerate(sorted(inplane, key=lambda k: spectrum.frequencies[k])):
            labels[k] = "ExB" if i == 0 else "cyclotron"

    intervals = {}
    for band in ("ExB", "cyclotron", "axial"):
        members = [
            spectrum.frequencies[k]
            for k in range(spectrum.n_modes)
            if labels[k] == band and k != spectrum.regularized_mode
        ]
        if members:
            intervals[band] = (float(min(members)), float(max(members)))

    spans = sorted(intervals.items(), key=lambda item: item[1][0])
    gaps = []
    for (name_a, span_a), (name_b, span_b) in zip(spans, spans[1:]):
        if span_b[0] > span_a[1]:
            gaps.append((span_a[1], span_b[0], name_a, name_b))
    return BandClassification(labels=labels, intervals=intervals, gaps=gaps)
