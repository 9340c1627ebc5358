"""Power models: the amplifier laws and one power law per device, each from
its complexity-driven baseband and its antenna-count-scaled RF front end.

Conventions fixed here once:

* Antenna-count scaling of an RF front end is applied exactly once, inside the
  front-end expression itself; device totals never multiply it in again.
* Power-supply, cooling and conversion overheads enter as the divisor
  (1 - eta_c)(1 - eta_acdc)(1 - eta_dcdc) at the device that owns a supply:
  the macro site, the building-mounted array, and the indoor access point.
  A relay array is fed by the macro site's supply, so its own total carries
  no divisor.
* The laws check nothing; the gate is validate_bundle, SweepSpec and points().
* Device laws return floats; only the amplifier laws map over a column (a list),
  each entry that point's own evaluation.
* Identical devices scale by their count, one rounding; ``records.add_up``
  sums only distinct terms, in order.

Each device has one law, baseband GOPS / rho plus its RF front end plus its
amplifier, over the supply divisor where it owns one, and each law sums its own
baseband stages and RF chain.  Arguments name the config they read: *cfg* is
the variant's ``scenario`` section (its m_t, m_r, m_t_iap and counts) and *b*
the whole bundle, from which a law reads ``gops`` (the stage workloads),
``devices`` (rho and the overhead fractions) and its own device section
(``mbsala``, ``bmaa`` or ``iap``); *led* is the ``lifi_led`` section.
"""

import math
import sys
from collections import namedtuple

from .config import ConfigBundle
from .records import add_up


DevicePower = namedtuple("DevicePower", "kind p_bb p_rf p_pa p_total p_illum p_comm",
                         defaults=(0.0, 0.0))
DevicePower.__doc__ = "Power breakdown of one device (W)."


# ---------------------------------------------------------------------------
# baseband workloads two devices share (GOPS)
# ---------------------------------------------------------------------------

def _gops_fft(gops) -> float:
    """One (I)FFT stage: N_s * N_fft * log2(N_fft) operations per frame."""
    return gops.n_symbols * gops.n_fft * math.log2(gops.n_fft) * gops.frame_rate / 1e9


def _gops_precoding(cfg, gops, antennas: int) -> float:
    """Precoding or combining: (N_ue + N_b L)(1 - tau / N_c) items per frame at
    pre_weight operations each (antennas * N_fft when the config leaves it on auto)."""
    items = (cfg.n_ue + cfg.n_buildings * cfg.n_beams) * (1.0 - cfg.pilot_len
                                                          / cfg.coherence_block)
    weight = gops.pre_weight if gops.pre_weight > 0 else antennas * gops.n_fft
    return items * weight * gops.frame_rate / 1e9


# ---------------------------------------------------------------------------
# amplifiers
# ---------------------------------------------------------------------------

def _roots(p_out, p_max: float) -> list:
    """sqrt(p * p_max) per p, as sqrt(p) sqrt(p_max) only where a product of p > 0
    leaves the normal range: it overflows, or underflows and loses digits."""
    sqrt, root, inf, tiny = math.sqrt, math.sqrt(p_max), math.inf, sys.float_info.min
    return [sqrt(q) if tiny <= (q := p * p_max) < inf or not p else sqrt(p) * root for p in p_out]


def pa_power_classb(p_out, p_max: float):
    """Class-B consumption (2/pi) sqrt(p_out p_max); zero draws zero."""
    scale = 2.0 / math.pi
    return [scale * r for r in _roots(p_out, p_max)]


def pa_power_doherty(p_out, p_max: float):
    """Two-branch Doherty consumption: (2/pi) sqrt(p_out p_max) below a quarter of the
    rating and (6/pi) sqrt(p_out p_max) from the quarter point up, kept discontinuous
    as modelled."""
    low, high, quarter = 2.0 / math.pi, 6.0 / math.pi, 0.25 * p_max
    return [(low if p < quarter else high) * r for p, r in zip(p_out, _roots(p_out, p_max))]


# ---------------------------------------------------------------------------
# device aggregates
# ---------------------------------------------------------------------------

def overhead_divisor(b: ConfigBundle) -> float:
    d = b.devices
    return (1.0 - d.eta_c) * (1.0 - d.eta_acdc) * (1.0 - d.eta_dcdc)


def power_mbsala(cfg, b: ConfigBundle, sigma: float, gains, streams: int) -> DevicePower:
    """One relay array: baseband (filtering, FFT, channel estimation, precoding,
    mapping, control, network) + RF over m_t antennas + *streams* class-B amplifiers
    per building.  At SINR target t the building of gain g in *gains* runs them at
    t *sigma* / g; class-B is homogeneous of degree 1/2, so they draw sqrt(t) k_link,
    and p_pa is k_link, their in-order sum at t = 1.  No divisor: the site's supply has it."""
    g, rf = b.gops, b.mbsala
    blocks_per_s = g.n_symbols * g.frame_rate / cfg.coherence_block
    gops = (g.fltr + _gops_fft(g) + cfg.pilot_len * cfg.m_t * cfg.n_ue * blocks_per_s / 1e9
            + _gops_precoding(cfg, g, cfg.m_t) + g.map + g.ctrl + g.nw)
    p_bb = gops / b.devices.rho
    p_rf = cfg.m_t * (rf.p_mod + rf.p_mix + rf.p_dac) + math.sqrt(cfg.m_t) * rf.p_clk
    p_pa = streams * add_up(pa_power_classb([sigma / gain for gain in gains], rf.pa_max))
    return DevicePower(kind="mbsala", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa, p_total=p_bb + p_rf + p_pa)


def power_bmaa(cfg, b: ConfigBundle) -> DevicePower:
    """One building-mounted array: receive-only, own supply overhead.  Every
    baseband stage (filtering, IFFT, combining over m_r antennas, demapping,
    decoding, control, network, resampling) runs once per beam."""
    g, rf, beams = b.gops, b.bmaa, cfg.n_beams
    gops = (beams * g.fltr + beams * _gops_fft(g) + beams * _gops_precoding(cfg, g, cfg.m_r)
            + beams * g.demap + beams * g.dec + beams * g.ctrl + beams * g.nw
            + beams * g.smpl)
    p_bb = gops / b.devices.rho
    p_rf = (cfg.m_r * (rf.p_mix + rf.p_vga + rf.p_adc + rf.p_lna)
            + math.sqrt(cfg.m_r) * rf.p_clc)
    total = (p_bb + p_rf) / overhead_divisor(b)
    return DevicePower(kind="bmaa", p_bb=p_bb, p_rf=p_rf, p_pa=0.0, p_total=total)


def power_iap_mmwave(cfg, b: ConfigBundle) -> DevicePower:
    """Indoor mmWave access point: baseband (filtering, FFT, mapping, control, network)
    + RF over m_t_iap antennas, own supply; its Doherty draw adds before the divisor."""
    g, rf = b.gops, b.iap
    p_bb = (g.fltr + _gops_fft(g) + g.map + g.ctrl + g.nw) / b.devices.rho
    p_rf = (cfg.m_t_iap * (rf.p_mix + rf.p_dac + rf.p_bft + rf.p_fs)
            + math.sqrt(cfg.m_t_iap) * rf.p_clc)
    return DevicePower(kind="iap-mmwave", p_bb=p_bb, p_rf=p_rf, p_pa=0.0,
                       p_total=(p_bb + p_rf) / overhead_divisor(b))


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


def power_mbs(cfg, b: ConfigBundle, mbsala: DevicePower) -> DevicePower:
    """Macro site: its own baseband (encoding, control and network per attached
    array) plus n_arrays copies of the relay array *mbsala*, over the supply divisor.

    The reported breakdown aggregates the arrays' stages so that
    p_total * divisor == p_bb + p_rf + p_pa holds exactly.
    """
    g, arrays = b.gops, cfg.n_arrays
    site_gops = arrays * g.enc + arrays * g.ctrl + arrays * g.nw
    p_bb = site_gops / b.devices.rho + arrays * mbsala.p_bb
    p_rf, p_pa = arrays * mbsala.p_rf, arrays * mbsala.p_pa
    return DevicePower(kind="mbs", p_bb=p_bb, p_rf=p_rf, p_pa=p_pa,
                       p_total=(p_bb + p_rf + p_pa) / overhead_divisor(b))
