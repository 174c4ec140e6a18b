"""Composite Gauss-Legendre panel quadrature for oscillatory gate integrals.

Panels carry a fixed-order Legendre interpolant, which also provides the
running antiderivative needed by the phase-accumulation kernel; both the
plain integral and the cumulative integral are spectrally accurate once the
panel density resolves the fastest oscillation.  Panels of one width also
factor the Fourier integral of a drive, so its phases cost one exponential
per panel and per reference node rather than one per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def _reference(order: int):
    """Reference-interval machinery for one panel order.

    Returns (nodes, weights, fit, eval_nodes, eval_left) where ``fit`` maps
    node values to Legendre coefficients of the interpolant, ``eval_nodes``
    evaluates the antiderivative coefficients back on the nodes, and
    ``eval_left`` evaluates them at the left edge x = -1.
    """
    from numpy.polynomial import legendre

    nodes, weights = np.polynomial.legendre.leggauss(order)
    # discrete Legendre transform: c_l = (2l+1)/2 sum_i w_i P_l(x_i) f(x_i)
    vander = legendre.legvander(nodes, order - 1)          # (p, p)
    fit = ((np.arange(order) + 0.5)[:, None] * vander.T) * weights[None, :]
    vander_int = legendre.legvander(nodes, order)          # (p, p+1)
    left = legendre.legvander(np.array([-1.0]), order)[0]  # (p+1,)
    int_map = np.zeros((order + 1, order))
    for col in range(order):
        coef = np.zeros(order)
        coef[col] = 1.0
        int_map[:, col] = legendre.legint(coef)
    return nodes, weights, fit, vander_int, left, int_map


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

    def integrate(self, values):
        """Integral over the whole window; values sampled on flat_times."""
        vals = np.asarray(values)
        shaped = vals.reshape(vals.shape[:-1] + self.times.shape)
        return (shaped * self.weights).sum(axis=(-2, -1))

    def fourier(self, values, omegas):
        """Integral of values(t) exp(i omega t) over the window, one per omega;
        values sampled on flat_times.

        The panels share one half width h, so a node t = m_p + h x_i factors
        the phase into exp(i omega m_p) exp(i omega h x_i): the integral is
        sum_p exp(i omega m_p) [E (w v)^T]_p with E_i = exp(i omega h x_i),
        which takes len(omegas) * (n_panels + order) exponentials instead of
        one per node and frequency.
        """
        nodes, *_ = _reference(self.order)
        half = float(np.mean(self.half_widths))
        # panel_grid's widths differ only by the rounding of the panel edges
        slack = 8 * np.finfo(float).eps * np.abs(self.times).max()
        if np.abs(self.half_widths - half).max() > slack:
            raise ValueError("factored Fourier integral needs panels of one width")
        omegas = np.asarray(omegas, dtype=float)
        weighted = np.asarray(values).reshape(self.times.shape) * self.weights
        centers = 0.5 * (self.times[:, 0] + self.times[:, -1])
        local = np.exp(1j * half * omegas[:, None] * nodes[None, :]) @ weighted.T
        return np.einsum("kp,kp->k", np.exp(1j * omegas[:, None] * centers[None, :]), local)

    def cumulative(self, values):
        """Running integral from t0, evaluated at every node."""
        vals = np.asarray(values)
        lead = vals.shape[:-1]
        shaped = vals.reshape(lead + self.times.shape)
        _, _, fit, vander_int, left, int_map = _reference(self.order)
        coeffs = np.einsum("lp,...kp->...kl", fit, shaped)
        anti = np.einsum("ml,...kl->...km", int_map, coeffs)
        at_nodes = np.einsum("pm,...km->...kp", vander_int, anti)
        at_left = np.einsum("m,...km->...k", left, anti)
        local = (at_nodes - at_left[..., None]) * self.half_widths[:, None]
        panel_totals = (shaped * self.weights).sum(axis=-1)
        prefix = np.cumsum(panel_totals, axis=-1) - panel_totals
        return (local + prefix[..., None]).reshape(lead + (-1,))


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
