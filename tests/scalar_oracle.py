"""Per-point reference engine for the scenario's array evaluation path.

This is the evaluation the scenario engine once ran for every grid point, one
point at a time: the required SINR through Python's ``**``, the indoor access
system solved once per point, and every device built through the scalar laws
of ``b5gcell.power`` and summed by ``power_cell`` below.  It reads the model's
geometry, gains and codebook but none of its precomputed device powers, and
recomputes the complexity loads from the bundle.  ``ScenarioModel.points``
must reproduce its rows bit for bit.
"""

import math

import numpy as np

from b5gcell.power import (
    SaturationError,
    bmaa_load,
    iap_load,
    mbs_load,
    mbsala_load,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbs,
    power_mbsala,
)
from b5gcell.scenario import (
    RATE_VARIABLE,
    SE_VARIABLE,
    PointResult,
    SweepResult,
    _variant_stream,
    build_scenario,
)


def power_cell(mbs, bmaa_powers=(), iap_powers=()) -> float:
    """Cell total: macro site plus every building array and access point."""
    return (mbs.p_total
            + sum(p.p_total for p in bmaa_powers)
            + sum(p.p_total for p in iap_powers))


def required_sinr(se_target: float, gamma: float) -> float:
    try:
        return 2.0 ** (se_target / gamma) - 1.0
    except OverflowError:
        return math.inf


def solve_mmwave_powers(model, sinr_target: float):
    """Per-user powers hitting a common SINR target, or None."""
    n = model.cfg.n_iue
    if sinr_target == 0.0:
        return np.zeros(n)
    if math.isinf(sinr_target):
        return None
    mat = model.access_diag - sinr_target * model.access_coupling
    try:
        powers = np.linalg.solve(mat, np.full(n, sinr_target * model.sigma_in))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(powers)):
        return None
    if np.any(powers < -1e-18):
        return None
    return np.clip(powers, 0.0, None)


def _backhaul_beam_powers(model, rate_user: float):
    cfg = model.cfg
    rate_beam = rate_user * cfg.n_iue / cfg.n_beams
    target = required_sinr(rate_beam / cfg.bandwidth_out, cfg.gamma)
    powers = []
    for beta in model.beta_backhaul:
        p = target * model.sigma_out / (beta * cfg.m_t * cfg.m_r)
        if p > model.k.mbsala.pa_max:
            raise SaturationError(p, model.k.mbsala.pa_max, where="backhaul pa")
        powers.extend([p] * cfg.n_beams)
    return powers


def _outdoor_devices(model, beams):
    cfg, k, gops = model.cfg, model.k, model.bundle.gops
    mbsala = power_mbsala(mbsala_load(cfg, gops), k, cfg.m_t, beams)
    return power_mbs(k, mbs_load(cfg, gops), [mbsala] * cfg.n_arrays)


def _separate_point(model, rate_user: float):
    cfg, k, gops = model.cfg, model.k, model.bundle.gops
    n_devices = cfg.n_arrays * cfg.n_buildings
    if model.variant.iap_kind == "mmwave":
        target = required_sinr(rate_user / cfg.bandwidth_in, cfg.gamma)
        powers = solve_mmwave_powers(model, target)
        if powers is None:
            return None
        p_out = float(np.sum(powers))
        if p_out > k.iap.pa_max:
            return None
        iap = power_iap_mmwave(iap_load(gops), k, cfg.m_t_iap, p_out)
    else:
        share = cfg.bandwidth_in / cfg.n_iue
        for sinr in model.lifi_sinr:
            capacity = cfg.gamma * share * math.log2(1.0 + sinr)
            if rate_user > capacity:
                return None
        iap = power_lifi_iap(model.lifi, float(np.mean(model.lifi_h)))
    mbs = _outdoor_devices(model, _backhaul_beam_powers(model, rate_user))
    bmaa = power_bmaa(bmaa_load(cfg, gops), k, cfg.m_r)
    return mbs, [bmaa] * n_devices, [iap] * n_devices


def _direct_point(model, rate_user: float):
    cfg, k = model.cfg, model.k
    target = required_sinr(rate_user / cfg.bandwidth_out, cfg.gamma)
    beams = []
    for beta in model.beta_direct:
        p = target * model.sigma_out / (beta * cfg.m_t * cfg.ue_antennas)
        if p > k.mbsala.pa_max:
            raise SaturationError(p, k.mbsala.pa_max, where="direct pa")
        beams.extend([p] * cfg.n_iue)
    return _outdoor_devices(model, beams), [], []


def rate_point(model, total_rate: float, x_value=None,
               x_kind: str = RATE_VARIABLE) -> PointResult:
    cfg = model.cfg
    x = total_rate if x_value is None else x_value
    rate_user = total_rate / (cfg.n_arrays * cfg.n_buildings * cfg.n_iue)
    infeasible = PointResult(variant=model.variant.name, x_value=x, x_kind=x_kind,
                             feasible=False, total_power_w=None, ee=None,
                             p_mbs_w=None, p_bmaa_w=None, p_iap_w=None)
    try:
        if model.variant.separation == "separate":
            result = _separate_point(model, rate_user)
        else:
            result = _direct_point(model, rate_user)
    except SaturationError:
        return infeasible
    if result is None:
        return infeasible
    mbs, bmaa_list, iap_list = result
    total = power_cell(mbs, bmaa_list, iap_list)
    return PointResult(
        variant=model.variant.name, x_value=x, x_kind=x_kind, feasible=True,
        total_power_w=total, ee=total_rate / cfg.bandwidth_out / total,
        p_mbs_w=mbs.p_total,
        p_bmaa_w=sum(p.p_total for p in bmaa_list),
        p_iap_w=sum(p.p_total for p in iap_list),
    )


def se_point(model, se_per_link: float) -> PointResult:
    cfg = model.cfg
    n_users = cfg.n_arrays * cfg.n_buildings * cfg.n_iue
    rate = se_per_link * cfg.bandwidth_out * n_users
    return rate_point(model, rate, x_value=se_per_link, x_kind=SE_VARIABLE)


def run_sweep(bundle, spec, seed: int = 0) -> SweepResult:
    """The sweep of ``b5gcell.scenario.run_sweep``, one point at a time."""
    rows = []
    for variant in spec.variants:
        model = build_scenario(bundle, variant, rng=_variant_stream(seed, variant.name))
        point = rate_point if spec.variable == RATE_VARIABLE else se_point
        rows.extend(point(model, float(x)) for x in spec.grid)
    return SweepResult(spec=spec, seed=seed, rows=tuple(rows))
