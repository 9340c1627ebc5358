"""Sweep requests and results.  Standard library only, so ``b5gcell analyze``
and the package root load without numpy or the scenario engine."""

from dataclasses import dataclass

from .config import ConfigError

RATE_VARIABLE = "total_rate_bps"
SE_VARIABLE = "se_bits_per_hz"


@dataclass(frozen=True)
class VariantSpec:
    """One scenario variant of a sweep."""

    name: str
    separation: str      # 'separate' | 'non-separate'
    iap_kind: str        # 'mmwave' | 'lifi' (unused when non-separate)
    m_t: int

    def __post_init__(self):
        if self.separation not in ("separate", "non-separate"):
            raise ConfigError(f"variant {self.name}: bad separation {self.separation!r}")
        if self.iap_kind not in ("mmwave", "lifi"):
            raise ConfigError(f"variant {self.name}: bad iap_kind {self.iap_kind!r}")
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
class PointResult:
    """One evaluated sweep point."""

    variant: str
    x_value: float
    x_kind: str
    feasible: bool
    total_power_w: float | None
    ee: float | None                # cell SE on the outdoor band per watt
    p_mbs_w: float | None
    p_bmaa_w: float | None
    p_iap_w: float | None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    seed: int
    rows: tuple  # PointResult, variant-major then grid order

    def variant_rows(self, name: str) -> tuple:
        rows = tuple(r for r in self.rows if r.variant == name)
        if not rows:
            raise KeyError(f"no rows for variant {name!r}")
        return rows
