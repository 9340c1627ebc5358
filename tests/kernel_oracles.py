"""Independent oracles for beam-kernel expectations.

Both evaluate E[F_M(theta - beam)^2] by sampling the kernel itself, so they
share nothing with the closed-form cosine series in ``b5gcell.metrics``: a
midpoint-rule grid (error O(h^2) in the grid step) and a Monte-Carlo
estimator (stratified draws keep its variance far below the comparison
tolerances).
"""

import numpy as np

from b5gcell import UniformAngles, fejer_kernel

EXPECTATION_GRID_POINTS = 4096


def grid_kernel_power(length: int, beam: float, cell: UniformAngles,
                      n_grid: int = EXPECTATION_GRID_POINTS) -> float:
    """Midpoint-rule E[F_M(theta - beam)^2] on n_grid points of *cell*."""
    width = cell.hi - cell.lo
    theta = cell.lo + (np.arange(n_grid) + 0.5) * (width / n_grid)
    return float(np.mean(fejer_kernel(length, theta - beam) ** 2))


def mc_kernel_power(length: int, beam: float, aod, n_draws: int,
                    rng: np.random.Generator, stratified: bool = True) -> float:
    """Monte-Carlo estimate of E[F_M(theta - beam)^2]."""
    if not isinstance(aod, UniformAngles):
        return fejer_kernel(length, float(aod) - beam) ** 2
    width = aod.hi - aod.lo
    u = rng.random(n_draws)
    if stratified:
        u = (np.arange(n_draws) + u) / n_draws
    theta = aod.lo + u * width
    return float(np.mean(fejer_kernel(length, theta - beam) ** 2))
