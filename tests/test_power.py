import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b5gcell import ConfigError, default_bundle, load_config
from b5gcell.power import (
    _gops_fft,
    _gops_precoding,
    overhead_divisor,
    pa_power_classb,
    pa_power_doherty,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbs,
    power_mbsala,
)
from scalar_oracle import power_cell, with_amplifier

GOLDEN = Path(__file__).parent / "golden" / "device_powers.txt"


def _gops(bundle, **keys):
    """*bundle* with the given ``gops`` keys replaced."""
    return bundle._replace(gops=bundle.gops._replace(**keys))


def _idle(bundle, **keys):
    """*bundle* with no baseband workload, then the given ``gops`` keys: every
    fixed stage is zero and no frame runs, which zeroes the FFT, estimation and
    precoding stages.  The laws check nothing, so a zero frame rate reaches them."""
    zero = dict.fromkeys("frame_rate fltr map demap smpl dec enc ctrl nw".split(), 0.0)
    return _gops(bundle, **{**zero, **keys})


def _gops_at_rho_1(law, cfg, bundle, *args):
    """A device's baseband workload in GOPS: its p_bb at one GOPS per watt."""
    return law(cfg, bundle._replace(devices=bundle.devices._replace(rho=1.0)), *args).p_bb


# --- complexity laws -----------------------------------------------------------

def test_fft_ops_per_frame_frozen(bundle):
    # at 1e9 frames per second the GOPS figure is the operation count per frame
    gops = bundle.gops._replace(frame_rate=1e9)
    assert _gops_fft(gops) == 14 * 2048 * 11
    assert _gops_fft(gops) == 315392


def test_fft_requires_power_of_two():
    # the config loader is the only gate on the FFT size
    with pytest.raises(ConfigError, match="gops.n_fft: must satisfy a power of two >= 2"):
        load_config(None, environ={"B5GCELL_GOPS__N_FFT": "1500"})


def test_gops_fft_timescale(bundle):
    assert _gops_fft(bundle.gops) == pytest.approx(0.315392, rel=1e-12)
    # the access point's baseband is the FFT alone once the fixed stages are idle
    idle = _idle(bundle, frame_rate=1000.0)
    assert _gops_at_rho_1(power_iap_mmwave, bundle.scenario, idle) == _gops_fft(idle.gops)


def test_estimation_ops_default_pilot_equals_users(bundle):
    cfg = bundle.scenario
    assert cfg.pilot_len == cfg.n_ue == 16
    # a block of pilots alone leaves nothing to precode: a relay array's
    # baseband is then the FFT plus channel estimation, tau * M_t * N_ue per block
    for pilot_len, ops in ((16, 64 * 16 * 16), (8, 64 * 16 * 8)):
        pilots_only = cfg._replace(pilot_len=pilot_len, coherence_block=pilot_len)
        b = _idle(bundle, frame_rate=1000.0)
        est = (_gops_at_rho_1(power_mbsala, pilots_only, b, 1.0, [1.0], 1)
               - _gops_fft(b.gops))
        assert est == pytest.approx(ops * (14 * 1000.0 / pilot_len) / 1e9, rel=1e-9)


def test_precoding_items_frozen(bundle):
    # frozen from an out-of-band evaluation of (16 + 4*4) * (1 - 16/196)
    gops = bundle.gops._replace(pre_weight=1.0, frame_rate=1e9)
    items = _gops_precoding(bundle.scenario, gops, 64)
    assert items == pytest.approx(29.387755102040817, rel=1e-12)


def test_complexity_total_is_sum_of_parts(bundle):
    cfg, g = bundle.scenario, bundle.gops
    est = cfg.pilot_len * cfg.m_t * cfg.n_ue * (g.n_symbols * g.frame_rate
                                                / cfg.coherence_block) / 1e9
    parts = (g.fltr + _gops_fft(g) + est + _gops_precoding(cfg, g, cfg.m_t) + g.map
             + g.ctrl + g.nw)
    assert _gops_at_rho_1(power_mbsala, cfg, bundle, 1.0, [1.0], 1) == pytest.approx(
        parts, rel=1e-15)


def test_bmaa_load_scales_with_beam_count(bundle):
    # every stage runs once per beam: dropping the fixed ones lowers the
    # workload by n_beams times their sum
    g = bundle.gops
    bare = _gops(bundle, fltr=0.0, smpl=0.0, demap=0.0, dec=0.0)
    for n_beams in (1, 4, 8):
        cfg = bundle.scenario._replace(n_beams=n_beams)
        drop = (_gops_at_rho_1(power_bmaa, cfg, bundle)
                - _gops_at_rho_1(power_bmaa, cfg, bare))
        assert drop == pytest.approx(n_beams * (g.fltr + g.smpl + g.demap + g.dec),
                                     rel=1e-12)


def test_bb_power_is_load_over_rho(bundle):
    # one array's site workload of 320 GOPS at 160 GOPS per watt
    b = _idle(bundle, enc=320.0)._replace(devices=bundle.devices._replace(rho=160.0))
    cfg = bundle.scenario._replace(n_arrays=1)
    assert power_mbs(cfg, b, power_mbsala(cfg, b, 1.0, [1.0], 1)).p_bb == 2.0


def test_device_laws_read_their_own_antenna_counts(bundle):
    # hand-transcribed at m_t = 128 != m_r = 64: a relay array reading m_r, a
    # building array reading m_t or an access point reading either misses these
    cfg = bundle.scenario._replace(m_t=128)
    assert (cfg.m_r, cfg.m_t_iap) == (64, 16)
    fft = 14 * 2048 * 11 * 1000 / 1e9
    items = (16 + 4 * 4) * (1 - 16 / 196)
    mbsala = power_mbsala(cfg, bundle, 1.0, [1.0], 1)
    est = 16 * 128 * 16 * (14 * 1000 / 196) / 1e9
    assert mbsala.p_bb == pytest.approx(
        (10 + fft + est + items * 128 * 2048 * 1000 / 1e9 + 5 + 10 + 10) / 160, rel=1e-12)
    assert mbsala.p_rf == pytest.approx(128 * 0.010 + math.sqrt(128) * 0.05, rel=1e-12)
    bmaa = power_bmaa(cfg, bundle)
    assert bmaa.p_bb == pytest.approx(
        4 * (10 + fft + items * 64 * 2048 * 1000 / 1e9 + 5 + 15 + 10 + 10 + 5) / 160,
        rel=1e-12)
    assert bmaa.p_rf == pytest.approx(64 * 0.015 + 8 * 0.04, rel=1e-12)
    iap = power_iap_mmwave(cfg, bundle)
    assert iap.p_bb == pytest.approx((10 + fft + 5 + 10 + 10) / 160, rel=1e-12)
    assert iap.p_rf == pytest.approx(16 * 0.090 + 4 * 0.08, rel=1e-12)
    mbs = power_mbs(cfg, bundle, mbsala)
    assert mbs.p_bb == pytest.approx(4 * (20 + 10 + 10) / 160 + 4 * mbsala.p_bb, rel=1e-12)
    assert mbs.p_rf == pytest.approx(4 * mbsala.p_rf, rel=1e-12)


# --- RF front ends ---------------------------------------------------------------

def test_rf_mbsala_hand_sum(bundle):
    # defaults: per-antenna 10 mW, clock 50 mW
    assert power_mbsala(bundle.scenario, bundle, 1.0, [1.0], 1).p_rf == pytest.approx(
        64 * 0.01 + 8 * 0.05, rel=1e-12)


def test_rf_affine_plus_root_shape(bundle):
    b = bundle._replace(mbsala=bundle.mbsala._replace(
        p_mod=0.01, p_mix=0.01, p_dac=0.01, p_clk=0.01))
    p_rf = power_mbsala(b.scenario, b, 1.0, [1.0], 1).p_rf
    assert p_rf == pytest.approx(64 * 0.03 + 8 * 0.01, rel=1e-12)
    assert p_rf == pytest.approx(2.0, rel=1e-12)


def test_rf_increment_approaches_per_antenna_share(bundle):
    rf = bundle.bmaa
    per_antenna = rf.p_mix + rf.p_vga + rf.p_adc + rf.p_lna
    cfg = bundle.scenario
    inc = (power_bmaa(cfg._replace(m_r=1024), bundle).p_rf
           - power_bmaa(cfg._replace(m_r=1023), bundle).p_rf)
    assert 0 < inc - per_antenna < 0.02 * rf.p_clc


def test_rf_single_antenna(bundle):
    rf = bundle.iap
    per = rf.p_mix + rf.p_dac + rf.p_bft + rf.p_fs
    device = power_iap_mmwave(bundle.scenario._replace(m_t_iap=1), bundle)
    assert device.p_rf == pytest.approx(per + rf.p_clc, rel=1e-12)


# --- amplifiers ------------------------------------------------------------------

def _classb(p_out, p_max):
    """The class-B law at one point, through a one-point column."""
    return pa_power_classb([p_out], p_max)[0]


def _doherty(p_out, p_max):
    """The Doherty law at one point, through a one-point column."""
    return pa_power_doherty([p_out], p_max)[0]


def test_classb_frozen_values():
    assert _classb(1.0, 1.0) == pytest.approx(2 / math.pi, rel=1e-12)
    assert _classb(0.25, 1.0) == pytest.approx(0.3183098861837907, rel=1e-12)
    assert _classb(0.0, 1.0) == 0.0
    # p_out * p_max overflows; the draw does not
    assert _classb(10.0, 1e308) == pytest.approx(2 / math.pi * 10 ** 0.5 * 1e154, rel=1e-15)


def test_doherty_frozen_values():
    assert _doherty(1.0, 1.0) == pytest.approx(6 / math.pi, rel=1e-12)
    assert _doherty(1.0, 1.0) == pytest.approx(1.909859317102744, rel=1e-12)
    assert _doherty(0.01, 1.0) == pytest.approx(2 / (math.pi * 10), rel=1e-12)
    assert _doherty(0.0, 1.0) == 0.0
    assert _doherty(10.0, 1e308) == pytest.approx(2 / math.pi * 10 ** 0.5 * 1e154, rel=1e-15)


def test_doherty_branch_values_at_quarter_rating():
    below = math.nextafter(0.25, 0.0)
    assert _doherty(below, 1.0) == pytest.approx((2 / math.pi) * 0.5, rel=1e-9)
    assert _doherty(0.25, 1.0) == pytest.approx((6 / math.pi) * 0.5, rel=1e-12)
    # the printed jump is a factor of three
    assert _doherty(0.25, 1.0) / _doherty(below, 1.0) == pytest.approx(3.0, rel=1e-9)


@given(p_max=st.floats(0.1, 100.0),
       a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_amplifiers_monotone_and_zero_at_zero(p_max, a, b):
    lo, hi = sorted((a * p_max, b * p_max))
    assert _classb(lo, p_max) <= _classb(hi, p_max) + 1e-15
    # the doherty curve is monotone within each branch
    if not (lo < 0.25 * p_max <= hi):
        assert _doherty(lo, p_max) <= _doherty(hi, p_max) + 1e-15
    assert _classb(0.0, p_max) == 0.0
    assert _doherty(0.0, p_max) == 0.0


@given(p_max=st.floats(1e-300, 1.7976931348623157e308), share=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_amplifier_draw_is_the_root_of_the_product_or_where_it_overflows_of_each_factor(
        p_max, share):
    p_out = share * p_max
    doherty = (2.0 if p_out < 0.25 * p_max else 6.0) / math.pi
    for draw, scale in ((_classb(p_out, p_max), 2.0 / math.pi), (_doherty(p_out, p_max), doherty)):
        if sys.float_info.min <= p_out * p_max < math.inf or not p_out:
            assert draw == scale * math.sqrt(p_out * p_max)   # the product's root, bit for bit
        else:   # the product overflows, or underflows and loses digits
            assert draw == pytest.approx(scale * math.sqrt(p_out) * math.sqrt(p_max), rel=1e-15,
                                         abs=0.0)


def test_an_amplifier_whose_output_times_rating_underflows_keeps_its_digits():
    # 1e-300 * 1e-30 is below the smallest normal float: its root has lost digits,
    # and at 1e-330 the product itself rounds to 0
    for p_out, p_max in ((1e-300, 1e-30), (1e-160, 1e-150), (5e-324, 1.0)):
        want = 2.0 / math.pi * math.sqrt(p_out) * math.sqrt(p_max)
        assert _classb(p_out, p_max) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert _doherty(p_out, p_max) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert _classb(1e-300, 1e-30) == pytest.approx(6.366197723675814e-166, rel=1e-15, abs=0.0)


# --- device aggregates -------------------------------------------------------------

def test_overhead_divisor_frozen(bundle):
    # frozen from an out-of-band evaluation of 1/(0.9 * 0.925 * 0.94)
    assert 1.0 / overhead_divisor(bundle) == pytest.approx(
        1.2778736182991504, rel=1e-9)


@given(ec=st.floats(0.0, 0.5), ea=st.floats(0.0, 0.5), ed=st.floats(0.0, 0.5),
       bb=st.floats(0.0, 100.0), rf=st.floats(0.0, 100.0))
@settings(max_examples=100)
def test_overhead_exactness_invariant(ec, ea, ed, bb, rf):
    bundle = default_bundle()
    b = bundle._replace(devices=bundle.devices._replace(eta_c=ec, eta_acdc=ea, eta_dcdc=ed))
    # one beam whose only stage is filtering at bb watts
    one_beam = b.scenario._replace(n_beams=1)
    device = power_bmaa(one_beam, _idle(b, fltr=bb * b.devices.rho))
    recovered = device.p_total * (1 - ec) * (1 - ea) * (1 - ed)
    assert recovered == pytest.approx(device.p_bb + device.p_rf + device.p_pa,
                                      rel=1e-12, abs=1e-12)


def test_mbsala_has_no_divisor(bundle):
    device = power_mbsala(bundle.scenario, bundle, 1.0, [1.0], 4)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf + device.p_pa, rel=1e-12)


def test_mbsala_zero_load_zero_output_is_rf_only(bundle):
    # no baseband work and a noiseless link: the amplifiers put out nothing
    device = power_mbsala(bundle.scenario, _idle(bundle), 0.0, [1.0], 1)
    assert device.p_bb == 0.0 and device.p_pa == 0.0
    assert device.p_total == device.p_rf


def test_mbsala_pa_additive_over_beams(bundle):
    four = power_mbsala(bundle.scenario, bundle, 0.5, [1.0], 4)
    eight = power_mbsala(bundle.scenario, bundle, 0.5, [1.0], 8)
    assert eight.p_pa == pytest.approx(2 * four.p_pa, rel=1e-12)


def test_bmaa_without_overhead_is_bare_sum(bundle):
    b = bundle._replace(devices=bundle.devices._replace(eta_c=0.0, eta_acdc=0.0, eta_dcdc=0.0))
    device = power_bmaa(b.scenario, b)
    assert device.p_total == pytest.approx(device.p_bb + device.p_rf, rel=1e-12)


def test_iap_floor_is_rf_only_through_divisor(bundle):
    device = power_iap_mmwave(bundle.scenario, _idle(bundle))
    assert device.p_pa == 0.0
    assert device.p_total == pytest.approx(device.p_rf / 0.78255, rel=1e-9)


def test_lifi_illumination_ignores_channel(bundle):
    a = power_lifi_iap(bundle.lifi_led, 1e-5)
    b = power_lifi_iap(bundle.lifi_led, 3e-6)
    assert a.p_illum == b.p_illum
    assert a.p_comm != b.p_comm


@given(h=st.floats(1e-8, 1e-3))
def test_lifi_comm_scales_with_h_squared(h):
    led = default_bundle().lifi_led
    base = power_lifi_iap(led, h)
    double = power_lifi_iap(led, 2 * h)
    assert double.p_comm == pytest.approx(4 * base.p_comm, rel=1e-12)


def test_lifi_dark_led_draws_nothing(bundle):
    device = power_lifi_iap(bundle.lifi_led._replace(phi=0.0), 0.0)
    assert device.p_illum == 0.0 and device.p_comm == 0.0 and device.p_total == 0.0


def test_mbs_overhead_identity_with_arrays(bundle):
    cfg, d = bundle.scenario, bundle.devices
    array = power_mbsala(cfg, bundle, 1.0, [1.0], 4)
    mbs = power_mbs(cfg, bundle, array)
    numerator = mbs.p_total * (1 - d.eta_c) * (1 - d.eta_acdc) * (1 - d.eta_dcdc)
    assert numerator == pytest.approx(mbs.p_bb + mbs.p_rf + mbs.p_pa, rel=1e-12)
    assert mbs.p_pa == pytest.approx(4 * array.p_pa, rel=1e-12)


def test_mbs_without_overhead_passes_arrays_through(bundle):
    b0 = _idle(bundle)._replace(devices=bundle.devices._replace(eta_c=0.0, eta_acdc=0.0,
                                                                 eta_dcdc=0.0))
    cfg = b0.scenario._replace(n_arrays=1)
    array = power_mbsala(cfg, b0, 25.0, [1.0], 2)
    mbs = power_mbs(cfg, b0, array)
    assert mbs.p_total == pytest.approx(array.p_total, rel=1e-12)


def test_power_cell_sums_components(bundle):
    cfg = bundle.scenario
    mbs = power_mbs(cfg, bundle, power_mbsala(cfg, bundle, 1.0, [1.0], 1))
    bmaa = power_bmaa(cfg, bundle)
    iap = _iap_at(bundle, 0.1)
    total = power_cell(mbs, 2, bmaa, iap)
    assert total == pytest.approx(mbs.p_total + 2 * bmaa.p_total + 2 * iap.p_total,
                                  rel=1e-12)
    assert power_cell(mbs) == mbs.p_total


@given(m_t=st.integers(1, 256), p=st.floats(0.0, 10.0))
@settings(max_examples=60)
def test_all_powers_nonnegative(m_t, p):
    bundle = default_bundle()
    device = power_mbsala(bundle.scenario._replace(m_t=m_t), bundle, p, [1.0], 1)
    assert device.p_bb >= 0 and device.p_rf >= 0 and device.p_pa >= 0
    assert device.p_total >= 0


def _iap_at(bundle, p_out):
    """The mmWave access point's breakdown with its Doherty amplifier at output *p_out*."""
    draw = pa_power_doherty([p_out], bundle.iap.pa_max)[0]
    return with_amplifier(power_iap_mmwave(bundle.scenario, bundle), draw,
                          overhead_divisor(bundle))


# --- golden snapshot ------------------------------------------------------------

def _golden_values():
    values = {}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key] = float(val)
    return values


def _current_device_powers():
    bundle = default_bundle()
    cfg = bundle.scenario
    mbsala = power_mbsala(cfg, bundle, 1.0, [1.0], 4)
    bmaa = power_bmaa(cfg, bundle)
    iap = _iap_at(bundle, 0.1)
    lifi = power_lifi_iap(bundle.lifi_led, 1e-5)
    return {
        "mbsala.p_bb": mbsala.p_bb, "mbsala.p_rf": mbsala.p_rf,
        "mbsala.p_pa": mbsala.p_pa, "mbsala.p_total": mbsala.p_total,
        "bmaa.p_bb": bmaa.p_bb, "bmaa.p_rf": bmaa.p_rf,
        "bmaa.p_total": bmaa.p_total,
        "iap.p_bb": iap.p_bb, "iap.p_rf": iap.p_rf,
        "iap.p_pa": iap.p_pa, "iap.p_total": iap.p_total,
        "lifi.p_illum": lifi.p_illum, "lifi.p_comm": lifi.p_comm,
        "lifi.p_total": lifi.p_total,
    }


def test_golden_device_powers():
    if os.environ.get("GOLDEN_REGEN") == "1":
        lines = ["# Regenerated from the implementation (GOLDEN_REGEN=1);",
                 "# reference operating points as in tests/test_power.py."]
        lines += [f"{key}={value!r}" for key, value in _current_device_powers().items()]
        GOLDEN.write_text("\n".join(lines) + "\n")
        pytest.skip("golden snapshot regenerated")
    expected = _golden_values()
    got = _current_device_powers()
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-6), key
