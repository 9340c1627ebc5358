"""Link metrics: the mean beam-kernel power over a sine-space cell, the
optical SINR of the LiFi hop, and the SINR an SE target requires.

F_M(x)^2 = M^-2 sum_{|k|<M} (M - |k|) cos(pi k x) is a finite cosine series, so
its mean over a uniform sine-space cell [mid - half, mid + half] is the exact
sum (M + 2 sum_{k=1}^{M-1} (M - k) cos(pi k (mid - beam)) sinc(k half)) / M^2,
sinc(t) = sin(pi t) / (pi t); this product form stays exact as the width goes
to 0, where a difference of two sines would cancel.
"""

from __future__ import annotations

import math

import numpy as np


def kernel_power_mean(length: int, offset, half):
    """Exact mean of F_M(theta - beam)^2 over theta uniform on [mid - half,
    mid + half], ``offset = mid - beam``; *offset* and *half* broadcast, and
    the sum over k accumulates into one array of their broadcast shape."""
    offset = np.asarray(offset, float)
    total = np.full(np.broadcast_shapes(offset.shape, np.shape(half)), float(length))
    for k in range(1, length):
        total += 2.0 * (length - k) * np.cos(math.pi * k * offset) * np.sinc(k * half)
    return total / float(length) ** 2


def sinr_lifi(c_f: float, p_tx: float, h_los: float, n0: float,
              bandwidth: float) -> float:
    """Optical SINR (c p H)^2 / (n0 B): the electrical signal power over the
    receiver noise in the band."""
    if n0 <= 0 or bandwidth <= 0:
        raise ValueError("n0 and bandwidth must be > 0")
    return (c_f * p_tx * h_los) ** 2 / (n0 * bandwidth)


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
