import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from b5gcell import ConfigError, VariantSpec, build_scenario, load_config
from b5gcell.channel import (
    LiFiGeometry,
    db_to_linear,
    lifi_angles,
    lifi_los_gain,
    pathloss_freespace,
    pathloss_winner_b5a,
)
from kernel_oracles import fejer_kernel


# --- beam kernel -------------------------------------------------------------

def test_kernel_is_one_at_broadside_for_all_lengths():
    for m in range(1, 513):
        assert fejer_kernel(m, 0.0) == pytest.approx(1.0, rel=1e-9)


def test_kernel_known_zeros():
    assert fejer_kernel(2, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert fejer_kernel(4, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_kernel_quarter_value():
    # sin(0.8 pi) = sin(0.2 pi) makes F_4(0.4) exactly 1/4
    assert fejer_kernel(4, 0.4) == pytest.approx(0.25, rel=1e-12)


def test_kernel_limit_at_even_integer():
    # both sin terms vanish; the limit comes from the cosine ratio
    assert fejer_kernel(3, 2.0) == pytest.approx(1.0, rel=1e-9)
    assert fejer_kernel(2, 2.0) == pytest.approx(-1.0, rel=1e-9)


def test_kernel_vectorized_matches_scalar():
    xs = np.linspace(-2.0, 2.0, 101)
    vec = fejer_kernel(8, xs)
    for x, v in zip(xs, vec):
        assert v == fejer_kernel(8, float(x))


@given(m=st.integers(1, 256), x=st.floats(-4.0, 4.0))
def test_kernel_bounded_and_even(m, x):
    value = fejer_kernel(m, x)
    assert abs(value) <= 1.0 + 1e-12
    assert value == pytest.approx(fejer_kernel(m, -x), rel=1e-12, abs=1e-12)


# --- path loss ---------------------------------------------------------------

def test_winner_b5a_reference_distances():
    assert pathloss_winner_b5a(100.0, 5.0) == pytest.approx(89.5, rel=1e-9)
    assert pathloss_winner_b5a(1.0, 5.0) == pytest.approx(42.5, rel=1e-9)


def test_winner_b5a_frequency_term():
    # frozen from an out-of-band evaluation at 100 m, 10 GHz
    assert pathloss_winner_b5a(100.0, 10.0) == pytest.approx(95.52059991327963,
                                                             rel=1e-12)
    assert pathloss_winner_b5a(100.0, 3.5) == pytest.approx(86.40196080028514,
                                                            rel=1e-12)


@given(d1=st.floats(1.0, 1e4), d2=st.floats(1.0, 1e4))
def test_winner_b5a_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert pathloss_winner_b5a(lo, 5.0) <= pathloss_winner_b5a(hi, 5.0) + 1e-12


@pytest.mark.parametrize("d,f", [(0.5, 5.0), (0.0, 5.0), (10.0, 0.0), (10.0, -1.0)])
def test_winner_b5a_domain(d, f):
    # the loader is the only gate on the law's domain: d >= 1 m, f > 0 GHz
    env = {"B5GCELL_LAYOUT__BUILDING_DISTANCES_M": f"{d}, 200, 300, 400",
           "B5GCELL_SCENARIO__CARRIER_FREQ_OUT": str(f)}
    with pytest.raises(ConfigError, match="layout.building_distances_m|scenario.carrier_freq_out"):
        load_config(None, environ=env)


def test_freespace_reference_value():
    # frozen: 20 log10(4 pi * 1 m * 60 GHz / c)
    assert pathloss_freespace(1.0, 60.0) == pytest.approx(68.01080822955625,
                                                          rel=1e-12)


def test_freespace_distance_doubling_adds_6db():
    base = pathloss_freespace(2.0, 60.0)
    assert pathloss_freespace(4.0, 60.0) - base == pytest.approx(20 * math.log10(2),
                                                                 rel=1e-9)


def test_penetration_adds_in_db(bundle):
    """The direct link pays the wall on top of the backhaul's path loss."""
    relay, nonsep = VariantSpec("relay", "sep-mmwave", 64), VariantSpec("direct", "nonsep", 64)
    cfg, pen = bundle.scenario, bundle.scenario.penetration_loss_db
    # each link's weakest gain beta m_t rx: m_r antennas at a building array, ue_antennas
    # at a handset
    backhaul = build_scenario(bundle, relay).link.weakest / cfg.m_r
    direct = build_scenario(bundle, nonsep).link.weakest / cfg.ue_antennas
    np.testing.assert_allclose(direct / backhaul, 10.0 ** (-pen / 10.0), rtol=1e-12)
    thicker = bundle._replace(scenario=bundle.scenario._replace(penetration_loss_db=pen + 10))
    np.testing.assert_allclose(build_scenario(thicker, nonsep).link.weakest / cfg.ue_antennas,
                               direct / 10.0, rtol=1e-12)
    assert build_scenario(thicker, relay).link == build_scenario(bundle, relay).link


@given(x=st.floats(-120.0, 60.0))
def test_db_linear_round_trip(x):
    assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-9)


# --- optical channel ---------------------------------------------------------

def _nadir_params():
    # emission exponent 1, 1 cm^2 detector, unity filter, n=1.5, 90 deg FoV
    from b5gcell import default_bundle
    lifi = default_bundle().lifi
    return lifi._replace(half_angle=math.pi / 3, area_pd=1e-4, g_filter=1.0,
                         refr_index=1.5, fov=math.pi / 2)


def test_lifi_nadir_frozen_values():
    params = _nadir_params()
    geom2 = LiFiGeometry(distance=2.0, phi=0.0, psi=0.0)
    geom4 = LiFiGeometry(distance=4.0, phi=0.0, psi=0.0)
    assert lifi_los_gain(geom2, params) == pytest.approx(1.7904931097838225e-05,
                                                         rel=1e-9)
    assert lifi_los_gain(geom4, params) == pytest.approx(4.476232774459556e-06,
                                                         rel=1e-9)


@given(d=st.floats(0.5, 50.0))
def test_lifi_inverse_square(d):
    params = _nadir_params()
    h = lifi_los_gain(LiFiGeometry(distance=d, phi=0.3, psi=0.4), params)
    href = lifi_los_gain(LiFiGeometry(distance=1.0, phi=0.3, psi=0.4), params)
    assert h * d * d == pytest.approx(href, rel=1e-12)


def test_lifi_zero_outside_fov():
    params = _nadir_params()
    beyond = params.fov + 0.01
    assert lifi_los_gain(LiFiGeometry(2.0, 0.0, beyond), params) == 0.0


def test_lifi_zero_behind_emitter():
    params = _nadir_params()
    assert lifi_los_gain(LiFiGeometry(2.0, math.pi / 2, 0.0), params) == 0.0


def test_lifi_angles_nadir():
    geom = lifi_angles((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), (0, 0, -1), (0, 0, 1))
    assert geom.distance == pytest.approx(3.0, rel=1e-12)
    assert geom.phi == pytest.approx(0.0, abs=1e-12)
    assert geom.psi == pytest.approx(0.0, abs=1e-12)


def test_lifi_angles_offset_geometry():
    # frozen: ceiling emitter over a corner desk, symmetric tilt both ends
    geom = lifi_angles((0.0, 0.0, 3.0), (1.5, 1.5, 0.85), (0, 0, -1), (0, 0, 1))
    assert geom.distance == pytest.approx(3.020347662107791, rel=1e-12)
    assert geom.phi == pytest.approx(0.7786837933324094, rel=1e-12)
    assert geom.psi == pytest.approx(0.7786837933324094, rel=1e-12)


def test_lifi_distance_is_the_plain_sum_bit_for_bit():
    # a BLAS dot product rounds as the CPU's kernel does (3.0203476621077914 here
    # on some); the plain sum in coordinate order rounds the same on every machine
    geom = lifi_angles((0.0, 0.0, 3.0), (1.5, 1.5, 0.85), (0, 0, -1), (0, 0, 1))
    assert geom.distance == 3.020347662107791
    rng = random.Random(11)
    for _ in range(2000):
        tx = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(2, 4))
        rx = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 1))
        dx, dy, dz = (r - t for r, t in zip(rx, tx))
        assert lifi_angles(tx, rx, (0, 0, -1), (0, 0, 1)).distance == \
            math.sqrt(dx * dx + dy * dy + dz * dz)


def test_lifi_angles_rejects_coincident_points():
    # the loader keeps the access point above every user, so the two never coincide
    with pytest.raises(ConfigError, match=re.escape("layout.iap_height_m: must satisfy > "
                                                    "user_height_m (got 3.0)")):
        load_config(None, environ={"B5GCELL_LAYOUT__USER_HEIGHT_M": "3.0"})


def test_default_offset_gain_frozen():
    # full default parameter set (80 deg FoV) at the shipped desk offset
    from b5gcell import default_bundle
    lifi = default_bundle().lifi
    geom = lifi_angles((0.0, 0.0, 3.0), (1.5, 1.5, 0.85), lifi.n_tx, lifi.n_rx)
    assert lifi_los_gain(geom, lifi) == pytest.approx(4.101841769464348e-06,
                                                      rel=1e-9)
