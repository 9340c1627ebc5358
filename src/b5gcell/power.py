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
* The laws check nothing; the gate is validate_bundle, SweepSpec and points().

Arguments name the config they read: *cfg* is a bundle's ``scenario`` section
(with the variant's m_t), *gops* its ``gops`` section, *led* its ``lifi_led``
section and *b* the whole bundle, whose device sections the device laws read
by their table names.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .config import ConfigBundle


# processing stages, in the order ``total`` adds them
_STAGES = "fltr fft est bf pre map demap dec enc ctrl nw smpl".split()


class ComplexityLoad(namedtuple("ComplexityLoad", _STAGES, defaults=(0.0,) * len(_STAGES))):
    """Baseband workload split by processing stage, each in GOPS."""

    __slots__ = ()

    @property
    def total(self) -> float:
        return sum(self)


class DevicePower(namedtuple("DevicePower", "kind p_bb p_rf p_pa p_total p_illum p_comm",
                             defaults=(0.0, 0.0))):
    """Power breakdown of one device (W)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# complexity laws
# ---------------------------------------------------------------------------

def fft_op_count(n_symbols: int, n_fft: int) -> float:
    """Operations per frame of one (I)FFT stage: N_s * N_fft * log2(N_fft)."""
    return n_symbols * n_fft * math.log2(n_fft)


def gops_fft(n_symbols: int, n_fft: int, frame_rate: float) -> float:
    """(I)FFT workload in GOPS at the configured frame rate."""
    return fft_op_count(n_symbols, n_fft) * frame_rate / 1e9


def estimation_op_count(m_t: int, n_ue: int, pilot_len: int) -> float:
    """Channel-estimation operations per coherence block: tau * M_t * N_ue."""
    return pilot_len * m_t * n_ue


def gops_estimation(m_t: int, n_ue: int, blocks_per_s: float, pilot_len: int) -> float:
    return estimation_op_count(m_t, n_ue, pilot_len) * blocks_per_s / 1e9


def precoding_item_count(n_ue: int, n_buildings: int, n_beams: int,
                         pilot_len: int, coherence_block: int) -> float:
    """Precoded/combined items per frame: (N_ue + N_b L)(1 - tau / N_c)."""
    return (n_ue + n_buildings * n_beams) * (1.0 - pilot_len / coherence_block)


def gops_precoding(n_ue: int, n_buildings: int, n_beams: int, pilot_len: int,
                   coherence_block: int, weight: float, frame_rate: float) -> float:
    """Precoding workload in GOPS; *weight* is ops per item (antennas * N_fft
    when the config leaves it on auto)."""
    items = precoding_item_count(n_ue, n_buildings, n_beams, pilot_len, coherence_block)
    return items * weight * frame_rate / 1e9


def _blocks_per_s(cfg, gops) -> float:
    return gops.n_symbols * gops.frame_rate / cfg.coherence_block


def _pre_weight(antennas: int, gops) -> float:
    return gops.pre_weight if gops.pre_weight > 0 else antennas * gops.n_fft


def mbsala_load(cfg, gops) -> ComplexityLoad:
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


def bmaa_load(cfg, gops) -> ComplexityLoad:
    """Receive-side workload of one building array, scaled by its beam count."""
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
    return ComplexityLoad._make(cfg.n_beams * x for x in per_beam)


def iap_load(gops) -> ComplexityLoad:
    """Workload of the indoor mmWave access point."""
    return ComplexityLoad(
        fltr=gops.fltr,
        fft=gops_fft(gops.n_symbols, gops.n_fft, gops.frame_rate),
        map=gops.map,
        ctrl=gops.ctrl,
        nw=gops.nw,
    )


def mbs_load(cfg, gops) -> ComplexityLoad:
    """Site-level workload: control, network and encoding per attached array."""
    return ComplexityLoad(
        ctrl=cfg.n_arrays * gops.ctrl,
        nw=cfg.n_arrays * gops.nw,
        enc=cfg.n_arrays * gops.enc,
    )


def bb_power(load: ComplexityLoad, rho: float) -> float:
    """Baseband power: total GOPS / (GOPS per watt)."""
    return load.total / rho


# ---------------------------------------------------------------------------
# RF front ends (antenna scaling applied here, exactly once)
# ---------------------------------------------------------------------------

def _rf_front_end(antennas: int, per_antenna: float, clock: float) -> float:
    return antennas * per_antenna + math.sqrt(antennas) * clock


def rf_power_mbsala(m_t: int, b: ConfigBundle) -> float:
    rf = b.mbsala
    return _rf_front_end(m_t, rf.p_mod + rf.p_mix + rf.p_dac, rf.p_clk)


def rf_power_bmaa(m_r: int, b: ConfigBundle) -> float:
    rf = b.bmaa
    return _rf_front_end(m_r, rf.p_mix + rf.p_vga + rf.p_adc + rf.p_lna, rf.p_clc)


def rf_power_iap(m_t_iap: int, b: ConfigBundle) -> float:
    rf = b.iap
    return _rf_front_end(m_t_iap, rf.p_mix + rf.p_dac + rf.p_bft + rf.p_fs, rf.p_clc)


# ---------------------------------------------------------------------------
# amplifiers
# ---------------------------------------------------------------------------

def pa_power_classb(p_out, p_max: float):
    """Class-B consumption (2/pi) sqrt(p_out p_max), elementwise; zero draws zero."""
    return (2.0 / math.pi) * np.sqrt(p_out * p_max)


def pa_power_doherty(p_out, p_max: float):
    """Two-branch Doherty consumption, elementwise.

    (2/pi) sqrt(p_out p_max) below a quarter of the rating and
    (6/pi) sqrt(p_out p_max) from the quarter point up, kept discontinuous as
    modelled.
    """
    root = np.sqrt(p_out * p_max)
    return np.where(p_out < 0.25 * p_max, (2.0 / math.pi) * root,
                    (6.0 / math.pi) * root)[()]


# ---------------------------------------------------------------------------
# device aggregates
# ---------------------------------------------------------------------------

def overhead_divisor(b: ConfigBundle) -> float:
    d = b.devices
    return (1.0 - d.eta_c) * (1.0 - d.eta_acdc) * (1.0 - d.eta_dcdc)


def power_mbsala(load: ComplexityLoad, b: ConfigBundle, m_t: int,
                 p_out_per_beam) -> DevicePower:
    """One relay array: baseband + RF front end + class-B amplifier per stream.

    No overhead divisor here; the macro-site supply carries it.
    """
    p_bb = bb_power(load, b.devices.rho)
    p_rf = rf_power_mbsala(m_t, b)
    p_pa = sum(pa_power_classb(p, b.mbsala.pa_max) for p in p_out_per_beam)
    return DevicePower(kind="mbsala", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa,
                       p_total=p_bb + p_rf + p_pa)


def power_bmaa(load: ComplexityLoad, b: ConfigBundle, m_r: int) -> DevicePower:
    """One building-mounted array: receive-only, own supply overhead."""
    p_bb = bb_power(load, b.devices.rho)
    p_rf = rf_power_bmaa(m_r, b)
    total = (p_bb + p_rf) / overhead_divisor(b)
    return DevicePower(kind="bmaa", p_bb=p_bb, p_rf=p_rf, p_pa=0.0, p_total=total)


def power_iap_mmwave(load: ComplexityLoad, b: ConfigBundle, m_t_iap: int,
                     p_out: float) -> DevicePower:
    """Indoor mmWave access point: baseband + RF + Doherty amplifier, own supply."""
    p_bb = bb_power(load, b.devices.rho)
    p_rf = rf_power_iap(m_t_iap, b)
    p_pa = pa_power_doherty(p_out, b.iap.pa_max)
    total = (p_bb + p_rf + p_pa) / overhead_divisor(b)
    return DevicePower(kind="iap-mmwave", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa,
                       p_total=total)


def power_lifi_iap(led, h_los: float) -> DevicePower:
    """LiFi access point: illumination power plus communication power.

    Illumination is rate-independent; communication scales with the squared
    LOS gain.  Neither term carries a supply overhead divisor.
    """
    drive = led.q * led.phi
    p_illum = (led.n * led.v_t * drive / (led.p_f * led.eps)
               * math.log(drive / (led.p_f * led.eps * led.i_s) + 1.0))
    p_comm = led.n * led.q * led.v_t * h_los ** 2 / (2.0 * led.p_f * led.eps * led.mu_phi)
    return DevicePower(kind="iap-lifi", p_bb=0.0, p_rf=0.0, p_pa=0.0,
                       p_total=p_illum + p_comm, p_illum=p_illum, p_comm=p_comm)


def power_mbs(b: ConfigBundle, site_load: ComplexityLoad, mbsala_powers) -> DevicePower:
    """Macro site: own baseband plus its relay arrays, all over the supply divisor.

    The reported breakdown aggregates the arrays' stages so that
    p_total * divisor == p_bb + p_rf + p_pa holds exactly.
    """
    p_bb = bb_power(site_load, b.devices.rho) + sum(m.p_bb for m in mbsala_powers)
    p_rf = sum(m.p_rf for m in mbsala_powers)
    p_pa = sum(m.p_pa for m in mbsala_powers)
    total = (p_bb + p_rf + p_pa) / overhead_divisor(b)
    return DevicePower(kind="mbs", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa, p_total=total)
