"""Sweep requests and results.  Standard library only, so ``b5gcell analyze``
and the package root load without numpy or the scenario engine."""

import math
from dataclasses import dataclass

from .config import ConfigError

RATE_VARIABLE = "total_rate_bps"
SE_VARIABLE = "se_bits_per_hz"
# the float columns of one evaluated variant, beside its bool ``feasible``
POWER_FIELDS = ("total_power_w", "ee", "p_mbs_w", "p_bmaa_w", "p_iap_w")


# variant kind -> the (separation, iap_kind) pair its manifest line records
VARIANT_KINDS = {"sep-mmwave": ("separate", "mmwave"), "sep-lifi": ("separate", "lifi"),
                 "nonsep": ("non-separate", "mmwave")}


@dataclass(frozen=True)
class VariantSpec:
    """One scenario variant of a sweep: a VARIANT_KINDS kind at *m_t* outdoor
    transmit antennas."""

    name: str
    kind: str
    m_t: int

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ConfigError(f"variant {self.name}: unknown kind {self.kind!r} "
                              f"(expected sep-mmwave, sep-lifi or nonsep)")
        if self.m_t < 1:
            raise ConfigError(f"variant {self.name}: m_t must be >= 1")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep request: which variable, over which grid, for which variants."""

    variable: str
    grid: tuple
    variants: tuple

    def __post_init__(self):
        if self.variable not in (RATE_VARIABLE, SE_VARIABLE):
            raise ConfigError(f"sweep variable must be {RATE_VARIABLE} or "
                              f"{SE_VARIABLE}, got {self.variable!r}")
        if len(self.grid) < 2:
            raise ConfigError("sweep grid needs at least 2 points")
        prev = None
        for x in self.grid:
            if not math.isfinite(x):
                raise ConfigError(f"sweep grid values must be finite, got {x!r}")
            if x < 0:
                raise ConfigError(f"sweep grid values must be >= 0, got {x!r}")
            if prev is not None and x <= prev:
                raise ConfigError("sweep grid must be strictly increasing")
            prev = x
        if not self.variants:
            raise ConfigError("sweep needs at least one variant")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variant names in sweep: {names}")


@dataclass(frozen=True)
class SweepResult:
    """Per variant name, in ``spec.variants`` order, the columns that
    ``ScenarioModel.points`` returns over ``spec.grid``."""

    spec: SweepSpec
    seed: int
    columns: dict
