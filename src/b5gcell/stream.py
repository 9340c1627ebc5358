"""NumPy's ``default_rng(SeedSequence(entropy)).uniform`` stream, standard library only.

``Stream(entropy).uniform(lo, hi, n)`` returns, bit for bit, the floats of
``np.random.default_rng(np.random.SeedSequence(entropy)).uniform(lo, hi, n)``, and
successive calls continue one stream as the Generator's do.  It is SeedSequence's
entropy mixing (a pool of four 32-bit words), PCG64 (a 128-bit LCG with the XSL-RR
output) seeded from ``generate_state(4, uint64)`` in NumPy's order, and doubles of 53
random bits.  NumPy's RNG policy (NEP 19) keeps those streams stable across releases.
"""

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit ``hashmix``, its constant advancing on every call."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & M32
        value = value * const & M32
        return value ^ value >> 16
    return hashmix


def _pool(entropy) -> list:
    """SeedSequence's mixed entropy pool of the nonnegative ints *entropy*."""
    words = []   # each int as little-endian 32-bit words, 0 as one word
    for n in entropy:
        words.append(n & M32)
        while n > M32:
            n >>= 32
            words.append(n & M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return result ^ result >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool


class Stream:
    """PCG64 seeded as ``default_rng(SeedSequence(entropy))`` seeds it."""

    def __init__(self, entropy):
        if any(n < 0 for n in entropy):
            raise ValueError(f"entropy must be nonnegative ints, got {entropy!r}")
        pool, hashmix = _pool(entropy), _hasher(0x8B51F9DD, 0x58F38DED)
        state = [hashmix(pool[i % 4]) for i in range(8)]   # generate_state(4, uint64)
        u64 = [state[i + 1] << 32 | state[i] for i in range(0, 8, 2)]   # little-endian view
        seed, inc = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        self._inc = (inc << 1 | 1) & M128
        # from state 0: one step, add the seed, one more step
        self._state = ((self._inc + seed) * PCG_MULT + self._inc) & M128

    def uniform(self, lo: float, hi: float, n: int) -> list:
        """*n* floats ``lo + (hi - lo) * u``, u uniform on [0, 1) with 53 random bits."""
        span, out = hi - lo, []
        for _ in range(n):
            self._state = state = (self._state * PCG_MULT + self._inc) & M128
            word = (state >> 64 ^ state) & M64
            rot = state >> 122
            word = (word >> rot | word << (64 - rot)) & M64
            out.append(lo + span * ((word >> 11) * 2.0 ** -53))
        return out
