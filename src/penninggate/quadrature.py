"""Composite Gauss-Legendre panel quadrature for oscillatory gate integrals.

Panels carry a fixed-order Legendre interpolant, whose running integral
over one panel is a single matrix on the reference nodes; both the Fourier
integral of a drive and the double integral of the phase kernel are
spectrally accurate once the panel density resolves the fastest
oscillation.  Panels of one width factor both: a node's phase splits into
its panel's phase and a reference-node phase, and the equally spaced panel
phases are products of a coarse and a fine table, so the Fourier integral
costs about 2 sqrt(panels) + order exponentials per frequency rather than
one per node; inside a panel the kernel sees only phase differences between
reference nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _reference(order: int):
    """Reference-interval machinery for one panel order.

    Returns (nodes, weights, running) where ``running`` maps node values to
    the integral of their Legendre interpolant from x = -1 to each node.
    """
    from numpy.polynomial import legendre

    nodes, weights = legendre.leggauss(order)
    # discrete Legendre transform: c_l = (2l+1)/2 sum_i w_i P_l(x_i) f(x_i)
    fit = ((np.arange(order) + 0.5)[:, None] * legendre.legvander(nodes, order - 1).T) * weights
    running = legendre.legval(nodes, legendre.legint(fit, lbnd=-1.0)).T
    return nodes, weights, running


@dataclass(frozen=True)
class PanelGrid:
    """Gauss-Legendre panels covering [t0, t1]."""

    times: np.ndarray        # (n_panels, order) physical node times
    weights: np.ndarray      # (n_panels, order) physical weights
    half_widths: np.ndarray  # (n_panels,)
    order: int

    @property
    def flat_times(self):
        return self.times.reshape(-1)

    def _factored(self, values, omegas):
        """Panel-factored pieces of sum over nodes of w v exp(i omega t).

        A node is t = m_p + h x_i, with one half width h and equally spaced
        centres m_p = m_0 + 2hp.  Writing p = aB + b with B = ceil(sqrt P),
        its phase is coarse_a fine_b near_i, the tables exp(i omega (m_0 +
        2hBa)), exp(i omega 2hb) and exp(i omega h x_i): K (P/B + B + order)
        exponentials for K frequencies instead of K P order.  Returns h, the
        three tables and the weighted samples w v as (P/B, B, order), zero
        past the last panel.
        """
        nodes, *_ = _reference(self.order)
        half = float(np.mean(self.half_widths))
        # panel_grid's widths differ only by the rounding of the panel edges
        slack = 8 * np.finfo(float).eps * np.abs(self.times).max()
        if np.abs(self.half_widths - half).max() > slack:
            raise ValueError("factored panel integrals need panels of one width")
        omegas = np.asarray(omegas, dtype=float)
        n_panels = len(self.half_widths)
        block = math.isqrt(n_panels - 1) + 1
        rows = -(-n_panels // block)
        weighted = np.zeros((rows * block, self.order))
        weighted[:n_panels] = np.asarray(values).reshape(self.times.shape) * self.weights
        start = 0.5 * (self.times[0, 0] + self.times[0, -1])
        coarse = np.exp(1j * np.outer(omegas, start + 2.0 * half * block * np.arange(rows)))
        fine = np.exp(1j * np.outer(omegas, 2.0 * half * np.arange(block)))
        near = np.exp(1j * np.outer(omegas, half * nodes))
        return half, coarse, fine, near, weighted.reshape(rows, block, self.order)

    def fourier(self, values, omegas):
        """Integral of values(t) exp(i omega t) over the window, one per omega;
        values sampled on flat_times.

        With the tables of ``_factored`` the integral is sum_a coarse_a
        sum_(b,i) (fine_b near_i) (w v)_abi: one (K, B order) by (B order,
        P/B) product, so no per-panel array of all K frequencies is formed.
        """
        _, coarse, fine, near, weighted = self._factored(values, omegas)
        span = (fine[:, :, None] * near[:, None, :]).reshape(len(coarse), -1)
        return np.einsum("ka,ka->k", coarse, span @ weighted.reshape(len(weighted), -1).T)

    def phase_kernel(self, values, omegas):
        """G(omega) = int dt c(t) int_t0^t ds c(s) sin(omega (t - s)) over the
        window for a real drive c sampled on flat_times, one per omega.

        The running integral at a node is the earlier panels' totals U_q =
        sum_i exp(i omega (m_q + h x_i)) (w v)_qi, from the tables of
        ``_factored``, plus the part inside its own panel, where the panel
        phase cancels: that part gives h^2 sum_ij w_i R_ij
        sin(omega h (x_i - x_j)) sum_p c_pi c_pj, with R the reference
        running-integral matrix, and the rest sum_p Im(U_p conj(sum_q<p U_q)).
        """
        nodes, weights, running = _reference(self.order)
        half, coarse, fine, near, weighted = self._factored(values, omegas)
        samples = np.asarray(values, dtype=float).reshape(self.times.shape)
        pairs = half**2 * weights[:, None] * running * (samples.T @ samples)
        offsets = half * (nodes[:, None] - nodes[None, :]).ravel()
        within = np.sin(np.asarray(omegas, dtype=float)[:, None] * offsets) @ pairs.ravel()
        phases = (coarse[:, :, None] * fine[:, None, :]).reshape(len(coarse), -1)
        totals = phases * (near @ weighted.reshape(-1, self.order).T)
        earlier = np.cumsum(totals, axis=1) - totals
        return within + np.imag(totals * np.conj(earlier)).sum(axis=1)


def panel_grid(t0: float, t1: float, n_panels: int, order: int = 16) -> PanelGrid:
    if t1 <= t0:
        raise ValueError("empty integration window")
    n_panels = max(int(n_panels), 1)
    edges = np.linspace(t0, t1, n_panels + 1)
    nodes, weights, *_ = _reference(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    times = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return PanelGrid(times=times, weights=wts, half_widths=half, order=order)


def grid_for_frequencies(t0, t1, max_angular_frequency, nodes_per_period, order: int = 16):
    """Panels sized so the fastest oscillation gets the requested node density."""
    periods = max_angular_frequency * (t1 - t0) / (2.0 * np.pi)
    n_nodes = max(nodes_per_period * periods, 4 * order)
    return panel_grid(t0, t1, int(np.ceil(n_nodes / order)), order=order)
