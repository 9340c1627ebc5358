"""Reference laws and independent oracles for beam-kernel expectations.

``fejer_kernel`` is the normalised beam kernel itself.  ``grid_kernel_power``
and ``mc_kernel_power`` evaluate E[F_M(theta - beam)^2] by sampling it, so
they share nothing with the closed-form cosine series in
``b5gcell.metrics``: a midpoint-rule grid (error O(h^2) in the grid step) and
a Monte-Carlo estimator (stratified draws keep its variance far below the
comparison tolerances).  ``expected_kernel_power`` and ``sinr_mmwave`` are the
scalar forms of the engine's beam codebook: the former calls
``b5gcell.metrics.kernel_power_mean`` for one (beam, cell) pair, the latter
sums those expectations into one user's SINR the way the access solver's
matrices do.
"""

import math
from dataclasses import dataclass

import numpy as np

from b5gcell.metrics import kernel_power_mean

EXPECTATION_GRID_POINTS = 4096
# below this, sin(pi*x/2) is treated as a removable singularity of the kernel
_KERNEL_SINGULARITY_EPS = 1e-9


@dataclass(frozen=True)
class UniformAngles:
    """Uniform sine-space departure-angle distribution over [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")


def fejer_kernel(length: int, x):
    """Normalised beam kernel sin(pi M x / 2) / (M sin(pi x / 2)).

    Scalar in, scalar out; arrays broadcast elementwise.  At the removable
    singularities (sin(pi x / 2) = 0) the limiting value
    cos(pi M x / 2) / cos(pi x / 2) is returned, which is 1 at x = 0 and
    +/-1 at even integers.
    """
    if length < 1:
        raise ValueError(f"kernel order must be >= 1, got {length}")
    arr = np.asarray(x, dtype=float)
    half = 0.5 * math.pi * arr
    den_core = np.sin(half)
    singular = np.abs(den_core) < _KERNEL_SINGULARITY_EPS
    safe_den = np.where(singular, 1.0, length * den_core)
    regular = np.sin(length * half) / safe_den
    limit = np.cos(length * half) / np.cos(half)
    out = np.where(singular, limit, regular)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def expected_kernel_power(length: int, beam: float, aod) -> float:
    """E[F_M(theta - beam)^2] for theta following *aod*: a fixed angle (plain
    evaluation) or a UniformAngles cell (its exact mean, kernel_power_mean)."""
    if isinstance(aod, UniformAngles):
        return float(kernel_power_mean(length, 0.5 * (aod.lo + aod.hi) - beam,
                                       0.5 * (aod.hi - aod.lo)))
    return fejer_kernel(length, float(aod) - beam) ** 2


def sinr_mmwave(k: int, aods, beams, betas, powers, m_t_iap: int,
                sigma2: float) -> float:
    """Beam-codebook SINR of user *k* on the indoor mmWave downlink.

    Numerator: beta_k E[F^2(theta_k - beam_k)] p_k.  Denominator: the user's
    own large-scale gain times sum over other beams of E[F^2(theta_k - beam_j)]
    p_j, plus noise.  Each expectation follows the user's angle model, so fixed
    angles reproduce the plain kernel evaluation.
    """
    n = len(aods)
    if not (len(beams) == len(betas) == len(powers) == n):
        raise ValueError("aods, beams, betas, powers must have equal length")
    if not 0 <= k < n:
        raise ValueError(f"user index {k} outside 0..{n - 1}")
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be > 0, got {sigma2!r}")
    beta_k = betas[k]
    if beta_k <= 0:
        raise ValueError(f"beta of user {k} must be > 0, got {beta_k!r}")
    signal = beta_k * expected_kernel_power(m_t_iap, beams[k], aods[k]) * powers[k]
    interference = sum(expected_kernel_power(m_t_iap, beams[j], aods[k]) * powers[j]
                       for j in range(n) if j != k)
    return signal / (beta_k * interference + sigma2)


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
