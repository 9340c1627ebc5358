"""Link metrics: SNR/SINR laws, spectral efficiency both ways, and the
expectation engine for beam-kernel powers under random departure angles.

F_M(x)^2 = M^-2 sum_{|k|<M} (M - |k|) cos(pi k x) is a finite cosine series, so
its mean over a uniform sine-space cell [mid - half, mid + half] is the exact
sum (M + 2 sum_{k=1}^{M-1} (M - k) cos(pi k (mid - beam)) sinc(k half)) / M^2,
sinc(t) = sin(pi t) / (pi t); this product form stays exact as the width goes
to 0, where a difference of two sines would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import fejer_kernel


@dataclass(frozen=True)
class LinkSnr:
    """A linear SNR or SINR value, tagged with the link kind it came from."""

    kind: str
    value: float

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.value)


@dataclass(frozen=True)
class SpectralEff:
    """Spectral efficiency in bit/s/Hz; stderr is set by the Monte-Carlo mode."""

    value: float
    gamma: float
    stderr: float | None = None


@dataclass(frozen=True)
class EnergyEff:
    """Spectral efficiency per watt; bits_per_joule is filled when a bandwidth is known."""

    value: float
    bits_per_joule: float | None = None


@dataclass(frozen=True)
class UniformAngles:
    """Uniform sine-space departure-angle distribution over [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")


def kernel_power_mean(length: int, offset, half):
    """Exact mean of F_M(theta - beam)^2 over theta uniform on [mid - half,
    mid + half], ``offset = mid - beam``; *offset* and *half* broadcast, and
    the sum over k accumulates into one array of their broadcast shape."""
    offset = np.asarray(offset, float)
    total = np.full(np.broadcast_shapes(offset.shape, np.shape(half)), float(length))
    for k in range(1, length):
        total += 2.0 * (length - k) * np.cos(math.pi * k * offset) * np.sinc(k * half)
    return total / float(length) ** 2


def expected_kernel_power(length: int, beam: float, aod) -> float:
    """E[F_M(theta - beam)^2] for theta following *aod*: a fixed angle (plain
    evaluation) or a UniformAngles cell (its exact mean, kernel_power_mean)."""
    if isinstance(aod, UniformAngles):
        return float(kernel_power_mean(length, 0.5 * (aod.lo + aod.hi) - beam,
                                       0.5 * (aod.hi - aod.lo)))
    return fejer_kernel(length, float(aod) - beam) ** 2


# ---------------------------------------------------------------------------
# link laws
# ---------------------------------------------------------------------------

def snr_macro(beta: float, m_t: int, m_r: int, p_sig: float, sigma2: float) -> LinkSnr:
    """Matched-beam outdoor SNR: beta * M_t * p / (sigma2 / M_r)."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be > 0, got {sigma2!r}")
    if p_sig < 0:
        raise ValueError(f"transmit power must be >= 0, got {p_sig!r}")
    return LinkSnr(kind="macro", value=beta * m_t * p_sig / (sigma2 / m_r))


def sinr_mmwave(k: int, aods, beams, betas, powers, m_t_iap: int,
                sigma2: float) -> LinkSnr:
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
    return LinkSnr(kind="mmwave", value=signal / (beta_k * interference + sigma2))


def sinr_lifi(c_f: float, p_tx: float, h_los: float, interferers,
              n0: float, bandwidth: float) -> LinkSnr:
    """Optical SINR: (c p H)^2 over noise-plus-interference, squares throughout.

    *interferers* is an iterable of (c_ijf, p_tx_j, h_los_j) triples.
    """
    if n0 <= 0 or bandwidth <= 0:
        raise ValueError("n0 and bandwidth must be > 0")
    signal = (c_f * p_tx * h_los) ** 2
    denom = n0 * bandwidth
    for c_j, p_j, h_j in interferers:
        denom += (c_j * p_j * h_j) ** 2
    return LinkSnr(kind="lifi", value=signal / denom)


def spectral_efficiency(sinr, gamma: float = 1.0, mode: str = "approx",
                        draws=None) -> SpectralEff:
    """Spectral efficiency in bit/s/Hz.

    'approx' evaluates gamma * log2(1 + sinr) at the mean SINR; 'exact-mc'
    averages gamma * log2(1 + x) over explicit SINR *draws* and reports the
    standard error of that mean.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    value = sinr.value if isinstance(sinr, LinkSnr) else float(sinr)
    if value < 0:
        raise ValueError(f"SINR must be >= 0, got {value!r}")
    if mode == "approx":
        return SpectralEff(value=gamma * math.log2(1.0 + value), gamma=gamma)
    if mode == "exact-mc":
        if draws is None:
            raise ValueError("mode 'exact-mc' needs an array of SINR draws")
        draws = np.asarray(draws, float)
        per_draw = gamma * np.log2(1.0 + draws)
        stderr = float(np.std(per_draw, ddof=1) / math.sqrt(per_draw.size))
        return SpectralEff(value=float(np.mean(per_draw)), gamma=gamma, stderr=stderr)
    raise ValueError(f"mode must be 'approx' or 'exact-mc', got {mode!r}")


def macro_snr_draws(snr_mean: float, m_t: int, m_r: int, n_draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Small-scale variation for the hardened outdoor link.

    The aggregate gain over M_t * M_r element pairs is modelled as a unit-mean
    gamma variable with shape M_t * M_r, whose relative spread shrinks as the
    array grows (channel hardening).
    """
    shape = m_t * m_r
    return snr_mean * rng.gamma(shape, 1.0 / shape, size=n_draws)


def required_sinr(se_target, gamma: float = 1.0):
    """Exact inverse of the approximate SE law: 2^(se/gamma) - 1, elementwise
    through Python's ``**`` (np.power(2.0, x) can be an ulp off it); a float
    for a scalar target."""
    se = np.asarray(se_target, float)
    if np.any(se < 0):
        raise ValueError(f"SE target must be >= 0, got {se_target!r}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    out = []
    for x in np.ravel(se / gamma).tolist():
        try:
            out.append(2.0 ** x - 1.0)
        except OverflowError:
            # beyond float range; inf is the correctly rounded value and it
            # propagates into an infinite power demand downstream
            out.append(math.inf)
    return out[0] if se.ndim == 0 else np.reshape(out, se.shape)


def energy_efficiency(se: float, total_power: float,
                      bandwidth: float | None = None) -> EnergyEff:
    """Spectral efficiency per watt; with a bandwidth also reported as bit/J."""
    se_value = se.value if isinstance(se, SpectralEff) else float(se)
    if total_power <= 0:
        raise ValueError(f"total power must be > 0, got {total_power!r}")
    if se_value < 0:
        raise ValueError(f"SE must be >= 0, got {se_value!r}")
    bpj = se_value * bandwidth / total_power if bandwidth else None
    return EnergyEff(value=se_value / total_power, bits_per_joule=bpj)
