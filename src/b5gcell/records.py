"""Sweep requests, ``ConfigError``, the one input-file reader, the digests'
SHA-256 and the one in-order sum.  Standard library only, so ``b5gcell analyze`` and the
package root load without the engine or the config table."""

import math
import sys
from collections import namedtuple
from functools import cache, reduce
from operator import add

RATE_VARIABLE = "total_rate_bps"
SE_VARIABLE = "se_bits_per_hz"
# the float columns of one evaluated variant, beside its bool ``feasible``
POWER_FIELDS = ("total_power_w", "ee", "p_mbs_w", "p_bmaa_w", "p_iap_w")


VARIANT_KINDS = ("sep-mmwave", "sep-lifi", "nonsep")


class ConfigError(ValueError):
    """Raised when a config file, env override, or bundle violates an invariant."""


def read_text(path: str) -> str:
    """The UTF-8 text of the file at *path*, line ends as stored, so that its UTF-8
    encoding is the file's bytes; a ConfigError that leads with *path* if unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                          ) from None


@cache   # looked up once: a failed import is not cached
def _sha256_type():
    # the running version's built-in first: _sha2 from 3.12 on, _sha256 before
    builtin = ("_sha2", "_sha256") if sys.version_info >= (3, 12) else ("_sha256", "_sha2")
    for name in (*builtin, "hashlib"):
        try:
            return __import__(name).sha256
        except ImportError:
            continue


def sha256(data: bytes = b""):
    """``hashlib.sha256(data)`` from CPython's built-in ``_sha2`` (``_sha256`` before 3.12),
    so a digest does not load OpenSSL; ``hashlib`` only on a build without either."""
    return _sha256_type()(data)


def add_up(terms):
    """0 + t0 + t1 + ..., one float at a time in order.  The built-in ``sum``
    compensates a float sum from Python 3.12 on, which would move results with the
    version."""
    return reduce(add, terms, 0)


class VariantSpec(namedtuple("VariantSpec", "name kind m_t")):
    """One scenario variant of a sweep: a VARIANT_KINDS kind at *m_t* outdoor
    transmit antennas."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, m_t: int):
        if kind not in VARIANT_KINDS:
            raise ConfigError(f"variant {name}: unknown kind {kind!r} (expected "
                              f"{', '.join(VARIANT_KINDS[:-1])} or {VARIANT_KINDS[-1]})")
        if isinstance(m_t, bool) or not isinstance(m_t, int) or m_t < 1:
            raise ConfigError(f"variant {name}: m_t must be >= 1 and an int, not {m_t!r}")
        if m_t > sys.float_info.max:   # the engine takes it as a float
            raise ConfigError(f"variant {name}: m_t must be <= the float maximum, not {m_t}")
        return super().__new__(cls, name, kind, m_t)

    @classmethod
    def _make(cls, iterable):   # _replace builds through _make: check there too
        return cls(*iterable)


class SweepSpec(namedtuple("SweepSpec", "variable grid variants")):
    """Sweep request: which variable, over which grid, for which variants."""

    __slots__ = ()

    def __new__(cls, variable: str, grid: tuple, variants: tuple):
        if variable not in (RATE_VARIABLE, SE_VARIABLE):
            raise ConfigError(f"sweep variable must be {RATE_VARIABLE} or "
                              f"{SE_VARIABLE}, got {variable!r}")
        if len(grid) < 2:
            raise ConfigError("sweep grid needs at least 2 points")
        prev = None
        for x in grid:
            if not math.isfinite(x):
                raise ConfigError(f"sweep grid values must be finite, got {x!r}")
            if x < 0:
                raise ConfigError(f"sweep grid values must be >= 0, got {x!r}")
            if prev is not None and x <= prev:
                raise ConfigError("sweep grid must be strictly increasing")
            prev = x
        if not variants:
            raise ConfigError("sweep needs at least one variant")
        names = [v.name for v in variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variant names in sweep: {names}")
        return super().__new__(cls, variable, grid, variants)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
