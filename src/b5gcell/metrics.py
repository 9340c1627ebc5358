"""Link metrics: the mean beam-kernel power over a sine-space cell, the
optical SINR of the LiFi hop, and the SINR an SE target requires.

F_M(x)^2 = M^-2 sum_{|k|<M} (M - |k|) cos(pi k x) is a finite cosine series, so
its mean over a uniform sine-space cell [mid - half, mid + half] is the exact
sum (M + 2 sum_{k=1}^{M-1} (M - k) cos(pi k (mid - beam)) sinc(k half)) / M^2,
sinc(t) = sin(pi t) / (pi t); this product form stays exact as the width goes
to 0, where a difference of two sines would cancel.
"""

import math


def _sinc(x: float) -> float:
    """sin(pi x) / (pi x) in numpy's form: y = pi x, with x = 0 taken as 1e-20."""
    y = math.pi * (1e-20 if x == 0 else x)
    return math.sin(y) / y


def kernel_power_mean(length: int, offset: float, half: float) -> float:
    """Exact mean of F_M(theta - beam)^2 over theta uniform on [mid - half,
    mid + half], ``offset = mid - beam``, the cosine terms added in k order."""
    total = float(length)
    for k in range(1, length):
        total += 2.0 * (length - k) * math.cos(math.pi * k * offset) * _sinc(k * half)
    return total / float(length) ** 2


def sinr_lifi(c_f: float, p_tx: float, h_los: float, n0: float,
              bandwidth: float) -> float:
    """Optical SINR (c p H)^2 / (n0 B): the electrical signal power over the
    receiver noise in the band."""
    return (c_f * p_tx * h_los) ** 2 / (n0 * bandwidth)


def required_sinr(se_targets, gamma: float = 1.0) -> list:
    """Exact inverse of the approximate SE law: 2^(se/gamma) - 1 through
    Python's ``**``, of each target in a column (a list back).  From
    se/gamma = 1024 on, 2^(se/gamma) is beyond float range (``**`` would
    raise): inf, the correctly rounded value, which propagates into an
    infinite power demand downstream."""
    inf = math.inf
    return [inf if (x := se / gamma) >= 1024.0 else 2.0 ** x - 1.0 for se in se_targets]
