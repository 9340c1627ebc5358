"""Scenario engine: wires channels, link metrics and device power models into
per-cell operating points and rate/SE sweeps.

Traffic model: the swept total rate is split equally across every indoor user
of the cell.  In separate mode each building's aggregate then rides over its
relay beams (building rate / beam count per beam), so the backhaul always
carries exactly the indoor traffic it serves.  A point is infeasible when any
amplifier would exceed its rating or an indoor link cannot reach the demanded
rate; infeasible points carry no power value.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import db_to_linear, lifi_angles, lifi_los_gain, pathloss_freespace, \
    pathloss_winner_b5a, apply_penetration
from .config import ConfigBundle, ConfigError, validate_bundle
from .metrics import kernel_power_mean, required_sinr, sinr_lifi
from .power import (
    bmaa_load,
    iap_load,
    mbs_load,
    mbsala_load,
    overhead_divisor,
    pa_power_classb,
    pa_power_doherty,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbs,
    power_mbsala,
)

RATE_VARIABLE = "total_rate_bps"
SE_VARIABLE = "se_bits_per_hz"
_POWER_FIELDS = ("total_power_w", "ee", "p_mbs_w", "p_bmaa_w", "p_iap_w")
# float64 entries per stacked access solve; a larger stack raised peak memory
# on 64-user access points without saving time
ACCESS_SOLVE_ENTRIES = 4096


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


class ScenarioModel:
    """Everything static about one variant; operating points are queried from it."""

    def __init__(self, bundle: ConfigBundle, variant: VariantSpec,
                 rng: np.random.Generator | None = None):
        validate_bundle(bundle)
        self.bundle = bundle
        self.variant = variant
        cfg = replace(bundle.scenario, m_t=variant.m_t)
        self.cfg = cfg
        k, lifi, gops, layout = (bundle.constants, bundle.lifi, bundle.gops,
                                 bundle.layout)
        self.k = k
        self.lifi = lifi

        # geometry: fixed layout, or one seeded draw per model
        if layout.placement == "random":
            if rng is None:
                rng = np.random.default_rng(0)
            distances = np.sort(rng.uniform(layout.distance_min_m,
                                            layout.distance_max_m,
                                            cfg.n_buildings))
            offsets = rng.uniform(-layout.room_halfwidth_m, layout.room_halfwidth_m,
                                  size=(cfg.n_iue, 2))
        else:
            distances = np.asarray(layout.building_distances_m, float)
            offsets = np.asarray(layout.user_offsets_m[:cfg.n_iue], float)
        self.building_distances = distances
        self.user_offsets = offsets

        # outdoor large-scale gains per building
        pl = np.array([pathloss_winner_b5a(d, cfg.carrier_freq_out)
                       for d in distances])
        self.beta_backhaul = np.array([db_to_linear(-x) for x in pl])
        pl_pen = np.array([apply_penetration(x, cfg.penetration_loss_db) for x in pl])
        self.beta_direct = np.array([db_to_linear(-x) for x in pl_pen])

        # the swept total rate is split equally over every indoor user
        self.n_users = cfg.n_arrays * cfg.n_buildings * cfg.n_iue
        self.sigma_out = cfg.noise_variance
        # indoor noise: identical density and noise figure, wider band
        self.sigma_in = cfg.noise_variance * cfg.bandwidth_in / cfg.bandwidth_out

        # indoor geometry shared by every building
        iap_pos = np.array([0.0, 0.0, layout.iap_height_m])
        user_pos = np.column_stack([offsets,
                                    np.full(cfg.n_iue, layout.user_height_m)])
        self.user_distances = np.linalg.norm(user_pos - iap_pos, axis=1)

        # rate-independent device powers: only the amplifiers follow the rate
        n_devices = cfg.n_arrays * cfg.n_buildings
        mbsala = power_mbsala(mbsala_load(cfg, gops), k, cfg.m_t, ())
        self._mbs = power_mbs(k, mbs_load(cfg, gops), [mbsala] * cfg.n_arrays)
        self._bmaa_sum = self._iap_sum = 0
        if variant.separation == "separate":
            bmaa = power_bmaa(bmaa_load(cfg, gops), k, cfg.m_r)
            self._bmaa_sum = _repeat_sum(bmaa.p_total, n_devices)
        if variant.separation == "separate" and variant.iap_kind == "mmwave":
            self.beta_access = np.array([
                db_to_linear(-pathloss_freespace(d, cfg.carrier_freq_in))
                for d in self.user_distances])
            self._init_beam_codebook()
            self._iap = power_iap_mmwave(iap_load(gops), k, cfg.m_t_iap, 0.0)
        if variant.separation == "separate" and variant.iap_kind == "lifi":
            self._init_lifi(iap_pos, user_pos)
            iap = power_lifi_iap(lifi, float(np.mean(self.lifi_h)))
            self._iap_sum = _repeat_sum(iap.p_total, n_devices)

    # -- indoor access precomputation ------------------------------------

    def _init_beam_codebook(self):
        """Evenly spaced sine-space beams, one per indoor user; a user's
        departure angle is uniform over its beam's cell.  With E_ij the mean
        power of beam j over user i's cell, the access system is D - t C with
        D = diag(beta_i E_ii) and C = beta_i E_ij off the diagonal."""
        n = self.cfg.n_iue
        width = 2.0 / n
        centers = -1.0 + (np.arange(n) + 0.5) * width
        self.beam_centers = centers
        coupling = self.beta_access[:, None] * kernel_power_mean(
            self.cfg.m_t_iap, centers[:, None] - centers[None, :], width / 2)
        self.access_diag = np.diag(np.diag(coupling))
        np.fill_diagonal(coupling, 0.0)
        self.access_coupling = coupling

    def _init_lifi(self, iap_pos, user_pos):
        lifi = self.lifi
        h = []
        for pos in user_pos:
            geom = lifi_angles(iap_pos, pos, lifi.n_tx, lifi.n_rx)
            h.append(lifi_los_gain(geom, lifi))
        self.lifi_h = np.asarray(h)
        self.lifi_sinr = np.array([
            sinr_lifi(lifi.c_f, lifi.p_opt, hu, lifi.n0, self.cfg.bandwidth_in)
            for hu in self.lifi_h])
        # each user must fit its TDMA share of the band
        share = self.cfg.bandwidth_in / self.cfg.n_iue
        self._lifi_capacity = min(self.cfg.gamma * share * math.log2(1.0 + sinr)
                                  for sinr in self.lifi_sinr)

    # -- evaluation over a grid ---------------------------------------------

    def _solve_mmwave_powers(self, sinr_targets):
        """Per-user transmit powers hitting each common SINR target (finite,
        > 0), one row per target, NaN where no non-negative solution exists.
        Equal targets couple through beam sidelobes, giving a small linear
        system per access point."""
        t = np.asarray(sinr_targets, float)[..., None, None]
        mats = self.access_diag - t * self.access_coupling
        rhs = np.broadcast_to(t * self.sigma_in, t.shape[:-2] + (self.cfg.n_iue, 1))
        try:
            powers = np.linalg.solve(mats, rhs)[..., 0]
        except np.linalg.LinAlgError:
            if mats.ndim == 2:
                return np.full(self.cfg.n_iue, np.nan)
            # one matrix at a time, so only the singular point fails
            return np.array([self._solve_mmwave_powers(x) for x in sinr_targets])
        ok = np.isfinite(powers).all(-1) & ~(powers < -1e-18).any(-1)
        return np.where(ok[..., None], np.clip(powers, 0.0, None), np.nan)

    def _access_power(self, sinr_targets):
        """Summed indoor transmit power per SINR target, NaN where unmeetable."""
        p_out = np.where(sinr_targets == 0.0, 0.0, np.nan)
        todo = np.flatnonzero((sinr_targets > 0.0) & np.isfinite(sinr_targets))
        chunk = max(1, ACCESS_SOLVE_ENTRIES // self.cfg.n_iue ** 2)
        for start in range(0, todo.size, chunk):
            idx = todo[start:start + chunk]
            p_out[idx] = np.sum(self._solve_mmwave_powers(sinr_targets[idx]), axis=-1)
        return p_out

    def rate_grid(self, total_rates) -> dict:
        """Evaluate the cell at every total offered rate (bit/s) at once.

        Returns the bool array ``feasible`` and one float array per
        PointResult power field, NaN where infeasible.  Only the amplifiers
        depend on the rate; the other device powers were fixed at build.  Sums
        run term by term in device order, so every entry equals its one-point
        evaluation exactly.
        """
        feasible, values = self._grid_values(total_rates)
        return {"feasible": feasible, **{name: np.where(feasible, value, np.nan)
                                         for name, value in zip(_POWER_FIELDS, values)}}

    def _grid_values(self, total_rates):
        """Feasibility and the _POWER_FIELDS values (arrays, or one float where
        a field does not depend on the rate); infeasible entries are left as
        computed."""
        rates = np.asarray(total_rates, float)
        if np.any(rates < 0):
            raise ValueError(f"total rate must be >= 0, got {rates.min()!r}")
        cfg, k, variant = self.cfg, self.k, self.variant
        rate_user = rates / self.n_users
        feasible = np.ones(rates.shape, bool)
        iap_sum = self._iap_sum
        with np.errstate(over="ignore", invalid="ignore"):
            if variant.separation == "separate" and variant.iap_kind == "mmwave":
                p_out = self._access_power(
                    required_sinr(rate_user / cfg.bandwidth_in, cfg.gamma))
                feasible &= p_out <= k.iap.pa_max   # False where NaN (unmeetable)
                amp = pa_power_doherty(np.minimum(p_out, k.iap.pa_max), k.iap.pa_max)
                iap = (self._iap.p_bb + self._iap.p_rf + amp) / overhead_divisor(k)
                iap_sum = _repeat_sum(iap, cfg.n_arrays * cfg.n_buildings)
            elif variant.separation == "separate":   # fixed optical drive
                feasible &= rate_user <= self._lifi_capacity
            if variant.separation == "separate":   # relay beams share a building's users
                rate_link = rate_user * cfg.n_iue / cfg.n_beams
                betas, streams, rx = self.beta_backhaul, cfg.n_beams, cfg.m_r
            else:
                rate_link = rate_user
                betas, streams, rx = self.beta_direct, cfg.n_iue, cfg.ue_antennas
            target = required_sinr(rate_link / cfg.bandwidth_out, cfg.gamma)
            p_pa = 0
            for beta in betas:   # building-major, one class-B amplifier per stream
                p = target * self.sigma_out / (beta * cfg.m_t * rx)
                feasible &= p <= k.mbsala.pa_max
                amp = pa_power_classb(np.minimum(p, k.mbsala.pa_max), k.mbsala.pa_max)
                p_pa = _repeat_sum(amp, streams, p_pa)
            p_mbs = (self._mbs.p_bb + self._mbs.p_rf + _repeat_sum(p_pa, cfg.n_arrays)
                     ) / overhead_divisor(k)
            total = p_mbs + self._bmaa_sum + iap_sum
            ee = rates / cfg.bandwidth_out / total
        return feasible, (total, ee, p_mbs, self._bmaa_sum, iap_sum)

    def points(self, xs, x_kind: str = RATE_VARIABLE) -> list:
        """PointResult rows at grid values *xs*: total offered rates (bit/s),
        or for SE_VARIABLE per-link SE targets (bit/s/Hz on the outdoor band).

        At a per-link SE every user demands se * bandwidth_out, so with the
        default layout the relay beams and direct links run at exactly it.
        """
        rates = np.asarray(xs, float)
        if x_kind == SE_VARIABLE:
            if np.any(rates < 0):
                raise ValueError(f"SE target must be >= 0, got {rates.min()!r}")
            rates = rates * self.cfg.bandwidth_out * self.n_users
        feasible, values = self._grid_values(rates)
        # a rate-independent field shares one float across its rows
        columns = [v.tolist() if np.ndim(v) else itertools.repeat(v) for v in values]
        none = (None,) * len(columns)
        return [PointResult(self.variant.name, float(x), x_kind, ok, *(row if ok else none))
                for x, ok, *row in zip(xs, feasible.tolist(), *columns)]

    def rate_point(self, total_rate: float) -> PointResult:
        """Evaluate the cell at one total offered rate (bit/s)."""
        return self.points([total_rate])[0]

    def se_point(self, se_per_link: float) -> PointResult:
        """Evaluate at a per-link SE target (bit/s/Hz on the outdoor band)."""
        return self.points([se_per_link], SE_VARIABLE)[0]


def _repeat_sum(value, times: int, start=0):
    """start + value + value + ... (*times* terms), added one at a time as the
    device sums are, so that totals stay bit-identical to a point-wise sum."""
    for _ in range(times):
        start = start + value
    return start


def build_scenario(bundle: ConfigBundle, variant: VariantSpec,
                   rng: np.random.Generator | None = None) -> ScenarioModel:
    """Build the model for one variant."""
    return ScenarioModel(bundle, variant, rng=rng)


def _variant_stream(seed: int, name: str) -> np.random.Generator:
    # keyed on the variant name, not its list position: reordering or adding
    # variants must not move anyone's random placement
    digest = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, digest]))


def run_sweep(bundle: ConfigBundle, spec: SweepSpec, seed: int = 0) -> SweepResult:
    """Evaluate every variant over the grid; deterministic for a (config, seed).

    Each variant gets an independent child RNG keyed on its name, so
    evaluation order cannot change random placements.
    """
    rows = []
    for variant in spec.variants:
        model = build_scenario(bundle, variant, rng=_variant_stream(seed, variant.name))
        rows.extend(model.points(spec.grid, spec.variable))
    return SweepResult(spec=spec, seed=seed, rows=tuple(rows))
