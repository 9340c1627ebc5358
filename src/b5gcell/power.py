"""Power models: complexity-driven baseband power, antenna-count-scaled RF
front ends, amplifier laws, and the per-device and per-cell aggregates.

Conventions fixed here once:

* Antenna-count scaling of an RF front end is applied exactly once, inside the
  front-end expression itself; device totals never multiply it in again.
* Power-supply, cooling and conversion overheads enter as the divisor
  (1 - eta_c)(1 - eta_acdc)(1 - eta_dcdc) at the device that owns a supply:
  the macro site, the building-mounted array, and the indoor access point.
  A relay array is fed by the macro site's supply, so its own total carries
  no divisor.
* An amplifier asked for more than its rating raises SaturationError; the
  scenario layer marks such a sweep point infeasible before asking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import DeviceConstants, GopsModel, LiFiDeviceParams, ScenarioConfig


class SaturationError(ValueError):
    """An amplifier was driven past its saturation rating."""

    def __init__(self, p_out: float, p_max: float, where: str = "pa"):
        self.p_out = p_out
        self.p_max = p_max
        self.where = where
        super().__init__(f"{where}: output {p_out:.6g} W exceeds rating {p_max:.6g} W")


@dataclass(frozen=True)
class ComplexityLoad:
    """Baseband workload split by processing stage, each in GOPS."""

    fltr: float = 0.0
    fft: float = 0.0
    est: float = 0.0
    bf: float = 0.0
    pre: float = 0.0
    map: float = 0.0
    demap: float = 0.0
    dec: float = 0.0
    enc: float = 0.0
    ctrl: float = 0.0
    nw: float = 0.0
    smpl: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class DevicePower:
    """Power breakdown of one device (W)."""

    kind: str
    p_bb: float
    p_rf: float
    p_pa: float
    p_total: float
    p_illum: float = 0.0
    p_comm: float = 0.0


# ---------------------------------------------------------------------------
# complexity laws
# ---------------------------------------------------------------------------

def fft_op_count(n_symbols: int, n_fft: int) -> float:
    """Operations per frame of one (I)FFT stage: N_s * N_fft * log2(N_fft)."""
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise ValueError(f"n_fft must be a power of two >= 2, got {n_fft}")
    if n_symbols < 0:
        raise ValueError(f"n_symbols must be >= 0, got {n_symbols}")
    return n_symbols * n_fft * math.log2(n_fft)


def gops_fft(n_symbols: int, n_fft: int, frame_rate: float) -> float:
    """(I)FFT workload in GOPS at the configured frame rate."""
    return fft_op_count(n_symbols, n_fft) * frame_rate / 1e9


def estimation_op_count(m_t: int, n_ue: int, pilot_len: int | None = None) -> float:
    """Channel-estimation operations per coherence block: tau * M_t * N_ue.

    The pilot length defaults to N_ue (one orthogonal pilot per user).
    """
    tau = n_ue if pilot_len is None else pilot_len
    if min(m_t, n_ue, tau) < 0:
        raise ValueError("antenna, user and pilot counts must be >= 0")
    return tau * m_t * n_ue


def gops_estimation(m_t: int, n_ue: int, blocks_per_s: float,
                    pilot_len: int | None = None) -> float:
    return estimation_op_count(m_t, n_ue, pilot_len) * blocks_per_s / 1e9


def precoding_item_count(n_ue: int, n_buildings: int, n_beams: int,
                         pilot_len: int, coherence_block: int) -> float:
    """Precoded/combined items per frame: (N_ue + N_b L)(1 - tau / N_c)."""
    if coherence_block < 1:
        raise ValueError(f"coherence_block must be >= 1, got {coherence_block}")
    if pilot_len < 0 or pilot_len > coherence_block:
        raise ValueError(f"pilot_len must lie in [0, coherence_block], got {pilot_len}")
    return (n_ue + n_buildings * n_beams) * (1.0 - pilot_len / coherence_block)


def gops_precoding(n_ue: int, n_buildings: int, n_beams: int, pilot_len: int,
                   coherence_block: int, weight: float, frame_rate: float) -> float:
    """Precoding workload in GOPS; *weight* is ops per item (antennas * N_fft
    when the config leaves it on auto)."""
    items = precoding_item_count(n_ue, n_buildings, n_beams, pilot_len, coherence_block)
    return items * weight * frame_rate / 1e9


def _blocks_per_s(cfg: ScenarioConfig, gops: GopsModel) -> float:
    return gops.n_symbols * gops.frame_rate / cfg.coherence_block


def _pre_weight(antennas: int, gops: GopsModel) -> float:
    return gops.pre_weight if gops.pre_weight > 0 else antennas * gops.n_fft


def mbsala_load(cfg: ScenarioConfig, gops: GopsModel) -> ComplexityLoad:
    """Transmit-side workload of one relay array."""
    return ComplexityLoad(
        fltr=gops.fltr,
        fft=gops_fft(gops.n_symbols, gops.n_fft, gops.frame_rate),
        est=gops_estimation(cfg.m_t, cfg.n_ue, _blocks_per_s(cfg, gops), cfg.pilot_len),
        pre=gops_precoding(cfg.n_ue, cfg.n_buildings, cfg.n_beams, cfg.pilot_len,
                           cfg.coherence_block, _pre_weight(cfg.m_t, gops),
                           gops.frame_rate),
        map=gops.map,
        ctrl=gops.ctrl,
        nw=gops.nw,
    )


def bmaa_load(cfg: ScenarioConfig, gops: GopsModel,
              l_beams: int | None = None) -> ComplexityLoad:
    """Receive-side workload of one building array, scaled by its beam count."""
    l_x = cfg.n_beams if l_beams is None else l_beams
    if l_x < 0:
        raise ValueError(f"beam count must be >= 0, got {l_x}")
    per_beam = ComplexityLoad(
        fltr=gops.fltr,
        bf=gops_precoding(cfg.n_ue, cfg.n_buildings, cfg.n_beams, cfg.pilot_len,
                          cfg.coherence_block, _pre_weight(cfg.m_r, gops),
                          gops.frame_rate),
        smpl=gops.smpl,
        fft=gops_fft(gops.n_symbols, gops.n_fft, gops.frame_rate),  # IFFT stage
        demap=gops.demap,
        dec=gops.dec,
        ctrl=gops.ctrl,
        nw=gops.nw,
    )
    return ComplexityLoad(**{f.name: l_x * getattr(per_beam, f.name)
                             for f in fields(per_beam)})


def iap_load(gops: GopsModel) -> ComplexityLoad:
    """Workload of the indoor mmWave access point."""
    return ComplexityLoad(
        fltr=gops.fltr,
        fft=gops_fft(gops.n_symbols, gops.n_fft, gops.frame_rate),
        map=gops.map,
        ctrl=gops.ctrl,
        nw=gops.nw,
    )


def mbs_load(cfg: ScenarioConfig, gops: GopsModel) -> ComplexityLoad:
    """Site-level workload: control, network and encoding per attached array."""
    return ComplexityLoad(
        ctrl=cfg.n_arrays * gops.ctrl,
        nw=cfg.n_arrays * gops.nw,
        enc=cfg.n_arrays * gops.enc,
    )


def bb_power(load: ComplexityLoad, rho: float) -> float:
    """Baseband power: total GOPS / (GOPS per watt)."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    return load.total / rho


# ---------------------------------------------------------------------------
# RF front ends (antenna scaling applied here, exactly once)
# ---------------------------------------------------------------------------

def _rf_front_end(antennas: int, per_antenna: float, clock: float) -> float:
    if antennas < 1:
        raise ValueError(f"antenna count must be >= 1, got {antennas}")
    return antennas * per_antenna + math.sqrt(antennas) * clock


def rf_power_mbsala(m_t: int, k: DeviceConstants) -> float:
    return _rf_front_end(m_t, k.mbsala.p_mod + k.mbsala.p_mix + k.mbsala.p_dac,
                         k.mbsala.p_clk)


def rf_power_bmaa(m_r: int, k: DeviceConstants) -> float:
    return _rf_front_end(m_r, k.bmaa.p_mix + k.bmaa.p_vga + k.bmaa.p_adc
                         + k.bmaa.p_lna, k.bmaa.p_clc)


def rf_power_iap(m_t_iap: int, k: DeviceConstants) -> float:
    return _rf_front_end(m_t_iap, k.iap.p_mix + k.iap.p_dac + k.iap.p_bft
                         + k.iap.p_fs, k.iap.p_clc)


# ---------------------------------------------------------------------------
# amplifiers
# ---------------------------------------------------------------------------

def pa_power_classb(p_out, p_max: float):
    """Class-B consumption (2/pi) sqrt(p_out p_max), elementwise; zero draws zero."""
    if p_max <= 0:
        raise ValueError(f"p_max must be > 0, got {p_max!r}")
    if np.any(p_out < 0):
        raise ValueError(f"p_out must be >= 0, got {p_out!r}")
    if np.any(p_out > p_max):
        raise SaturationError(np.max(p_out), p_max, where="class-b pa")
    return (2.0 / math.pi) * np.sqrt(p_out * p_max)


def pa_power_doherty(p_out, p_max: float):
    """Two-branch Doherty consumption, elementwise.

    (2/pi) sqrt(p_out p_max) below a quarter of the rating and
    (6/pi) sqrt(p_out p_max) from the quarter point up, kept discontinuous as
    modelled.
    """
    if p_max <= 0:
        raise ValueError(f"p_max must be > 0, got {p_max!r}")
    if np.any(p_out < 0):
        raise ValueError(f"p_out must be >= 0, got {p_out!r}")
    if np.any(p_out > p_max):
        raise SaturationError(np.max(p_out), p_max, where="doherty pa")
    root = np.sqrt(p_out * p_max)
    return np.where(p_out < 0.25 * p_max, (2.0 / math.pi) * root,
                    (6.0 / math.pi) * root)[()]


# ---------------------------------------------------------------------------
# device aggregates
# ---------------------------------------------------------------------------

def overhead_divisor(k: DeviceConstants) -> float:
    return (1.0 - k.eta_c) * (1.0 - k.eta_acdc) * (1.0 - k.eta_dcdc)


def power_mbsala(load: ComplexityLoad, k: DeviceConstants, m_t: int,
                 p_out_per_beam) -> DevicePower:
    """One relay array: baseband + RF front end + class-B amplifier per stream.

    No overhead divisor here; the macro-site supply carries it.
    """
    p_bb = bb_power(load, k.rho)
    p_rf = rf_power_mbsala(m_t, k)
    p_pa = sum(pa_power_classb(p, k.mbsala.pa_max) for p in p_out_per_beam)
    return DevicePower(kind="mbsala", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa,
                       p_total=p_bb + p_rf + p_pa)


def power_bmaa(load: ComplexityLoad, k: DeviceConstants, m_r: int) -> DevicePower:
    """One building-mounted array: receive-only, own supply overhead."""
    p_bb = bb_power(load, k.rho)
    p_rf = rf_power_bmaa(m_r, k)
    total = (p_bb + p_rf) / overhead_divisor(k)
    return DevicePower(kind="bmaa", p_bb=p_bb, p_rf=p_rf, p_pa=0.0, p_total=total)


def power_iap_mmwave(load: ComplexityLoad, k: DeviceConstants, m_t_iap: int,
                     p_out: float) -> DevicePower:
    """Indoor mmWave access point: baseband + RF + Doherty amplifier, own supply."""
    p_bb = bb_power(load, k.rho)
    p_rf = rf_power_iap(m_t_iap, k)
    p_pa = pa_power_doherty(p_out, k.iap.pa_max)
    total = (p_bb + p_rf + p_pa) / overhead_divisor(k)
    return DevicePower(kind="iap-mmwave", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa,
                       p_total=total)


def power_lifi_iap(params: LiFiDeviceParams, h_los: float) -> DevicePower:
    """LiFi access point: illumination power plus communication power.

    Illumination is rate-independent; communication scales with the squared
    LOS gain.  Neither term carries a supply overhead divisor.
    """
    if h_los < 0:
        raise ValueError(f"h_los must be >= 0, got {h_los!r}")
    led = params.led
    drive = led.q * led.phi
    p_illum = (led.n * led.v_t * drive / (led.p_f * led.eps)
               * math.log(drive / (led.p_f * led.eps * led.i_s) + 1.0))
    p_comm = led.n * led.q * led.v_t * h_los ** 2 / (2.0 * led.p_f * led.eps * led.mu_phi)
    return DevicePower(kind="iap-lifi", p_bb=0.0, p_rf=0.0, p_pa=0.0,
                       p_total=p_illum + p_comm, p_illum=p_illum, p_comm=p_comm)


def power_mbs(k: DeviceConstants, site_load: ComplexityLoad,
              mbsala_powers) -> DevicePower:
    """Macro site: own baseband plus its relay arrays, all over the supply divisor.

    The reported breakdown aggregates the arrays' stages so that
    p_total * divisor == p_bb + p_rf + p_pa holds exactly.
    """
    p_bb = bb_power(site_load, k.rho) + sum(m.p_bb for m in mbsala_powers)
    p_rf = sum(m.p_rf for m in mbsala_powers)
    p_pa = sum(m.p_pa for m in mbsala_powers)
    total = (p_bb + p_rf + p_pa) / overhead_divisor(k)
    return DevicePower(kind="mbs", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa, p_total=total)
