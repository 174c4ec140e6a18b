"""Composite Gauss-Legendre panels: the panel-factored Fourier integral and
phase kernel."""

import numpy as np
import pytest
from numpy.polynomial import legendre

from penninggate.quadrature import PanelGrid, grid_for_frequencies, panel_grid


LAYOUTS = ((0.0, 50.0, 7, 16), (2.5, 4.0e3, 613, 16), (-3.0, 9.0, 5, 8))


def test_fourier_matches_nodewise_integral():
    rng = np.random.default_rng(3)
    for t0, t1, n_panels, order in LAYOUTS:
        grid = panel_grid(t0, t1, n_panels, order=order)
        omegas = np.concatenate([[0.0], rng.uniform(0.01, 2.0, 40)])
        values = rng.standard_normal(grid.flat_times.size)
        weighted = grid.weights.reshape(-1) * values
        nodewise = np.exp(1j * omegas[:, None] * grid.flat_times[None, :]) @ weighted
        scale = np.sum(np.abs(weighted))
        assert np.abs(grid.fourier(values, omegas) - nodewise).max() <= 1e-12 * scale


def test_fourier_exact_for_a_pure_exponential():
    # int_0^T exp(i w t) dt = (exp(i w T) - 1) / (i w), resolved at 40 nodes per period
    omegas = np.array([0.3, 1.0, 1.7])
    tau = 800.0
    grid = grid_for_frequencies(0.0, tau, omegas.max(), 40)
    exact = (np.exp(1j * omegas * tau) - 1.0) / (1j * omegas)
    got = grid.fourier(np.ones(grid.flat_times.size), omegas)
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-11 * tau)


def test_fourier_rejects_unequal_panels():
    grid = panel_grid(0.0, 10.0, 4)
    stretched = PanelGrid(times=grid.times, weights=grid.weights,
                          half_widths=grid.half_widths * np.array([1.0, 1.0, 1.0, 1.1]),
                          order=grid.order)
    with pytest.raises(ValueError, match="one width"):
        stretched.fourier(np.ones(grid.flat_times.size), [1.0])
    with pytest.raises(ValueError, match="one width"):
        stretched.phase_kernel(np.ones(grid.flat_times.size), [1.0])


def nodewise_phase_kernel(grid, values, omegas):
    """The node-wise G: u = c exp(i omega t) at every node, its running
    integral from the Legendre antiderivative of each panel plus the earlier
    panels' totals, then the integral of Im(u conj(running))."""
    order = grid.order
    nodes, weights = legendre.leggauss(order)
    fit = ((np.arange(order) + 0.5)[:, None] * legendre.legvander(nodes, order - 1).T) * weights
    int_map = np.stack([legendre.legint(np.eye(order)[col]) for col in range(order)], axis=1)
    at_nodes = legendre.legvander(nodes, order) - legendre.legvander(np.array([-1.0]), order)
    u = values[None, :] * np.exp(1j * np.asarray(omegas)[:, None] * grid.flat_times[None, :])
    shaped = u.reshape(len(omegas), *grid.times.shape)
    anti = np.einsum("ml,lp,kqp->kqm", int_map, fit, shaped)
    local = np.einsum("pm,kqm->kqp", at_nodes, anti) * grid.half_widths[:, None]
    totals = (shaped * grid.weights).sum(axis=-1)
    prefix = np.cumsum(totals, axis=-1) - totals
    running = (local + prefix[..., None]).reshape(len(omegas), -1)
    return np.imag(u * np.conj(running)) @ grid.weights.reshape(-1)


def test_phase_kernel_matches_nodewise_formula():
    rng = np.random.default_rng(9)
    for t0, t1, n_panels, order in LAYOUTS:
        grid = panel_grid(t0, t1, n_panels, order=order)
        omegas = np.concatenate([[0.0], rng.uniform(0.01, 2.0, 40)])
        values = rng.standard_normal(grid.flat_times.size)
        scale = np.sum(np.abs(grid.weights.reshape(-1) * values)) ** 2
        got = grid.phase_kernel(values, omegas)
        assert np.abs(got - nodewise_phase_kernel(grid, values, omegas)).max() <= 1e-12 * scale


def test_phase_kernel_exact_for_a_constant_drive():
    # c = 1: G = int_0^T dt (1 - cos w t) / w = (w T - sin w T) / w^2
    omegas = np.array([0.3, 1.0, 1.7])
    tau = 800.0
    grid = grid_for_frequencies(0.0, tau, omegas.max(), 40)
    exact = (omegas * tau - np.sin(omegas * tau)) / omegas**2
    got = grid.phase_kernel(np.ones(grid.flat_times.size), omegas)
    np.testing.assert_allclose(got, exact, rtol=1e-12)
