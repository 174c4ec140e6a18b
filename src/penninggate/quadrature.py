"""Composite Gauss-Legendre panel quadrature for oscillatory gate integrals.

Panels carry a fixed-order Legendre interpolant, whose running integral
over one panel is a single matrix on the reference nodes; both the Fourier
integral of a drive and the double integral of the phase kernel are
spectrally accurate once the panel density resolves the fastest
oscillation.  Panels of one width factor both: a node's phase splits into
its panel's phase and a reference-node phase, so the Fourier integral costs
one exponential per panel and per reference node rather than one per node,
and inside a panel the kernel sees only phase differences between
reference nodes.
"""

from __future__ import annotations

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
        """Common half width h, panel phases exp(i omega m_p) and local sums
        [E (w v)^T]_p with E_i = exp(i omega h x_i), for a node t = m_p + h x_i.
        """
        nodes, *_ = _reference(self.order)
        half = float(np.mean(self.half_widths))
        # panel_grid's widths differ only by the rounding of the panel edges
        slack = 8 * np.finfo(float).eps * np.abs(self.times).max()
        if np.abs(self.half_widths - half).max() > slack:
            raise ValueError("factored panel integrals need panels of one width")
        omegas = np.asarray(omegas, dtype=float)
        weighted = np.asarray(values).reshape(self.times.shape) * self.weights
        centers = 0.5 * (self.times[:, 0] + self.times[:, -1])
        local = np.exp(1j * half * omegas[:, None] * nodes[None, :]) @ weighted.T
        return half, np.exp(1j * omegas[:, None] * centers[None, :]), local

    def fourier(self, values, omegas):
        """Integral of values(t) exp(i omega t) over the window, one per omega;
        values sampled on flat_times.

        The panels share one half width h, so a node t = m_p + h x_i factors
        the phase into exp(i omega m_p) exp(i omega h x_i): the integral is
        sum_p exp(i omega m_p) [E (w v)^T]_p with E_i = exp(i omega h x_i),
        which takes len(omegas) * (n_panels + order) exponentials instead of
        one per node and frequency.
        """
        _, phases, local = self._factored(values, omegas)
        return np.einsum("kp,kp->k", phases, local)

    def phase_kernel(self, values, omegas):
        """G(omega) = int dt c(t) int_t0^t ds c(s) sin(omega (t - s)) over the
        window for a real drive c sampled on flat_times, one per omega.

        The running integral at a node is the earlier panels' totals U_q (as
        ``fourier`` forms them) plus the part inside its own panel, where the
        panel phase cancels: that part gives h^2 sum_ij w_i R_ij
        sin(omega h (x_i - x_j)) sum_p c_pi c_pj, with R the reference
        running-integral matrix, and the rest sum_p Im(U_p conj(sum_q<p U_q)).
        """
        nodes, weights, running = _reference(self.order)
        half, phases, local = self._factored(values, omegas)
        samples = np.asarray(values, dtype=float).reshape(self.times.shape)
        pairs = half**2 * weights[:, None] * running * (samples.T @ samples)
        offsets = half * (nodes[:, None] - nodes[None, :]).ravel()
        within = np.sin(np.asarray(omegas, dtype=float)[:, None] * offsets) @ pairs.ravel()
        totals = phases * local
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
