"""Per-point reference engine for the scenario's array evaluation path.

This is the evaluation the scenario engine once ran for every grid point, one
point at a time: the required SINR through Python's ``**``, the indoor access
system built as a full n x n matrix of beam expectations and solved once per
point, and every device built through the laws of ``b5gcell.power``, each
called on one-point columns, and summed by ``power_cell`` below: identical
devices scale by their count, one rounding, and distinct terms add in order.
It reads the model's geometry and gains but neither its closed-form access
power nor its precomputed device powers: every device law runs again at every
point.  The laws themselves are shared, so the hand-transcribed device powers
in ``tests/test_power.py`` check them.
``ScenarioModel.points``
must reproduce its rows bit for bit, except that the summed access power of a
``sep-mmwave`` row (and so its total power, EE and access point power) may
differ from this solve in the last bits.
"""

import functools
import math
from dataclasses import dataclass
from operator import add

import numpy as np

from b5gcell.metrics import kernel_power_mean
from b5gcell.power import (overhead_divisor, pa_power_doherty, power_bmaa, power_iap_mmwave,
                           power_lifi_iap, power_mbs, power_mbsala)
from b5gcell.scenario import RATE_VARIABLE, SE_VARIABLE, build_scenario


class SaturationError(ValueError):
    """An outdoor amplifier would pass its rating, so the point is infeasible."""


@dataclass(frozen=True)
class PointResult:
    """One evaluated sweep point; the power fields are None where infeasible."""

    variant: str
    x_value: float
    x_kind: str
    feasible: bool
    total_power_w: float | None
    ee: float | None                # cell SE on the outdoor band per watt
    p_mbs_w: float | None
    p_bmaa_w: float | None
    p_iap_w: float | None


def plain_sum(terms) -> float:
    """0 + t0 + t1 + ..., one term at a time: the sum on every Python (the
    built-in ``sum`` compensates a float sum from Python 3.12 on)."""
    return functools.reduce(add, terms, 0)


def power_cell(mbs, count: int = 0, *devices) -> float:
    """Cell total: macro site plus *count* of each of *devices*, in order (a
    building array, then an access point)."""
    total = mbs.p_total
    for device in devices:
        total += count * device.p_total
    return total


def with_amplifier(device, p_pa: float, divisor: float = 1.0):
    """*device*'s breakdown with its amplifier drawing *p_pa*, over *divisor*."""
    return device._replace(p_pa=p_pa, p_total=(device.p_bb + device.p_rf + p_pa) / divisor)


def required_sinr(se_target: float, gamma: float) -> float:
    try:
        return 2.0 ** (se_target / gamma) - 1.0
    except OverflowError:
        return math.inf


def beam_centers(n: int):
    """Sine-space centres of n evenly spaced beams over [-1, 1], one per user."""
    return -1.0 + (np.arange(n) + 0.5) * (2.0 / n)


@functools.lru_cache(maxsize=None)   # every point of a sweep solves on the same matrix
def beam_expectations(n: int, m_t_iap: int):
    """The n x n matrix E_ij: the mean power of beam j over user i's codebook
    cell, one kernel mean per (i, j) pair; read-only, as it is shared."""
    centers = beam_centers(n).tolist()
    matrix = np.array([[kernel_power_mean(m_t_iap, ci - cj, 1.0 / n) for cj in centers]
                       for ci in centers])
    matrix.flags.writeable = False
    return matrix


def access_matrix(model):
    """beta_i E_ij: each row of beam_expectations times its user's gain."""
    return np.asarray(model.beta_access)[:, None] * beam_expectations(model.cfg.n_iue,
                                                          model.cfg.m_t_iap)


def solve_mmwave_powers(model, sinr_target: float):
    """Per-user powers hitting a common SINR target, or None: the access
    system D - t C, with D the diagonal of access_matrix and C its off-diagonal
    part, solved against t * sigma_in for every user."""
    n = model.cfg.n_iue
    if sinr_target == 0.0:
        return np.zeros(n)
    if math.isinf(sinr_target):
        return None
    coupling = access_matrix(model)
    diag = np.diag(np.diag(coupling))
    mat = diag - sinr_target * (coupling - diag)
    try:
        powers = np.linalg.solve(mat, np.full(n, sinr_target * model.sigma_in))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(powers)):
        return None
    if np.any(powers < -1e-18):
        return None
    return np.clip(powers, 0.0, None)


def _outdoor_devices(model, target: float, rx: int, streams: int, link: str):
    """The macro site at SINR target *target*: each building's amplifier output,
    shared by its *streams* streams, is checked against the rating one building at a
    time; the relay array law gives the draw at target 1, which class-B scales by
    sqrt(target)."""
    cfg, b = model.cfg, model.bundle
    sigma = cfg.noise_variance
    gains = [beta * cfg.m_t * rx for beta in model.beta_out]
    for gain in gains:
        p = target * sigma / gain
        if p > b.mbsala.pa_max:
            raise SaturationError(f"{link} pa: {p!r} W > {b.mbsala.pa_max!r} W")
    mbsala = power_mbsala(cfg, b, sigma, gains, streams)
    return power_mbs(cfg, b, with_amplifier(mbsala, mbsala.p_pa * math.sqrt(target)))


def _separate_point(model, rate_user: float):
    cfg, b = model.cfg, model.bundle
    if model.variant.kind == "sep-mmwave":
        target = required_sinr(rate_user / cfg.bandwidth_in, cfg.gamma)
        powers = solve_mmwave_powers(model, target)
        if powers is None:
            return None
        p_out = float(np.sum(powers))
        if p_out > b.iap.pa_max:
            return None
        iap = with_amplifier(power_iap_mmwave(cfg, b), pa_power_doherty([p_out], b.iap.pa_max)[0],
                             overhead_divisor(b))
    else:
        share = cfg.bandwidth_in / cfg.n_iue
        for sinr in model.lifi_sinr:
            capacity = cfg.gamma * share * math.log2(1.0 + sinr)
            if rate_user > capacity:
                return None
        iap = power_lifi_iap(model.bundle.lifi_led, plain_sum(model.lifi_h) / len(model.lifi_h))
    rate_beam = rate_user * cfg.n_iue / cfg.n_beams
    target = required_sinr(rate_beam / cfg.bandwidth_out, cfg.gamma)
    mbs = _outdoor_devices(model, target, cfg.m_r, cfg.n_beams, "backhaul")
    return mbs, (power_bmaa(cfg, b), iap)


def _direct_point(model, rate_user: float):
    cfg = model.cfg
    target = required_sinr(rate_user / cfg.bandwidth_out, cfg.gamma)
    return _outdoor_devices(model, target, cfg.ue_antennas, cfg.n_iue, "direct"), ()


def rate_point(model, total_rate: float, x_value=None,
               x_kind: str = RATE_VARIABLE) -> PointResult:
    cfg = model.cfg
    x = total_rate if x_value is None else x_value
    rate_user = total_rate / (cfg.n_arrays * cfg.n_buildings * cfg.n_iue)
    infeasible = PointResult(variant=model.variant.name, x_value=x, x_kind=x_kind,
                             feasible=False, total_power_w=None, ee=None,
                             p_mbs_w=None, p_bmaa_w=None, p_iap_w=None)
    try:
        if model.variant.kind != "nonsep":
            result = _separate_point(model, rate_user)
        else:
            result = _direct_point(model, rate_user)
    except SaturationError:
        return infeasible
    if result is None:
        return infeasible
    mbs, devices = result   # the building array and access point, or none
    n_devices = cfg.n_arrays * cfg.n_buildings
    total = power_cell(mbs, n_devices, *devices)
    p_bmaa, p_iap = [n_devices * d.p_total for d in devices] or [0.0, 0.0]
    return PointResult(
        variant=model.variant.name, x_value=x, x_kind=x_kind, feasible=True,
        total_power_w=total, ee=total_rate / cfg.bandwidth_out / total,
        p_mbs_w=mbs.p_total,
        p_bmaa_w=p_bmaa,
        p_iap_w=p_iap,
    )


def se_point(model, se_per_link: float) -> PointResult:
    cfg = model.cfg
    n_users = cfg.n_arrays * cfg.n_buildings * cfg.n_iue
    rate = se_per_link * cfg.bandwidth_out * n_users
    return rate_point(model, rate, x_value=se_per_link, x_kind=SE_VARIABLE)


def run_sweep(bundle, spec, seed: int = 0) -> list:
    """The sweep of ``b5gcell.scenario.run_sweep`` as PointResult rows, one
    point at a time, variant-major then grid order."""
    rows = []
    for variant in spec.variants:
        model = build_scenario(bundle, variant, seed=seed)
        point = rate_point if spec.variable == RATE_VARIABLE else se_point
        rows.extend(point(model, float(x)) for x in spec.grid)
    return rows
