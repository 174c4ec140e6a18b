"""Composite Gauss-Legendre panels: the panel-factored Fourier integral."""

import numpy as np
import pytest

from penninggate.quadrature import PanelGrid, grid_for_frequencies, panel_grid


def test_fourier_matches_nodewise_integral():
    rng = np.random.default_rng(3)
    for t0, t1, n_panels, order in ((0.0, 50.0, 7, 16), (2.5, 4.0e3, 613, 16), (-3.0, 9.0, 5, 8)):
        grid = panel_grid(t0, t1, n_panels, order=order)
        omegas = np.concatenate([[0.0], rng.uniform(0.01, 2.0, 40)])
        values = rng.standard_normal(grid.flat_times.size)
        nodewise = grid.integrate(
            np.exp(1j * omegas[:, None] * grid.flat_times[None, :]) * values[None, :]
        )
        scale = np.sum(np.abs(grid.weights.reshape(-1) * values))
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
