"""Reference link laws for the outdoor hop.

The engine only inverts the SE law (``b5gcell.metrics.required_sinr``) and
sizes each beam's power from the matched-beam gain.  These are the forward
laws it is checked against: the matched-beam SNR, the spectral efficiency as
the approximate law at the mean SINR or as a Monte-Carlo mean over SINR
draws, and the hardened small-scale variation that supplies those draws.
"""

import math

import numpy as np


def snr_macro(beta: float, m_t: int, m_r: int, p_sig: float, sigma2: float) -> float:
    """Matched-beam outdoor SNR: beta * M_t * p / (sigma2 / M_r)."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be > 0, got {sigma2!r}")
    if p_sig < 0:
        raise ValueError(f"transmit power must be >= 0, got {p_sig!r}")
    return beta * m_t * p_sig / (sigma2 / m_r)


def spectral_efficiency(sinr: float, gamma: float = 1.0, mode: str = "approx",
                        draws=None) -> float:
    """Spectral efficiency in bit/s/Hz.

    'approx' evaluates gamma * log2(1 + sinr) at the mean SINR; 'exact-mc'
    averages gamma * log2(1 + x) over explicit SINR *draws*.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    if sinr < 0:
        raise ValueError(f"SINR must be >= 0, got {sinr!r}")
    if mode == "approx":
        return gamma * math.log2(1.0 + sinr)
    if mode == "exact-mc":
        if draws is None:
            raise ValueError("mode 'exact-mc' needs an array of SINR draws")
        return float(np.mean(gamma * np.log2(1.0 + np.asarray(draws, float))))
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
