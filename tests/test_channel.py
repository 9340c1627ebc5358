import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from b5gcell.channel import (
    LiFiGeometry,
    apply_penetration,
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
    with pytest.raises(ValueError):
        pathloss_winner_b5a(d, f)


def test_freespace_reference_value():
    # frozen: 20 log10(4 pi * 1 m * 60 GHz / c)
    assert pathloss_freespace(1.0, 60.0) == pytest.approx(68.01080822955625,
                                                          rel=1e-12)


def test_freespace_distance_doubling_adds_6db():
    base = pathloss_freespace(2.0, 60.0)
    assert pathloss_freespace(4.0, 60.0) - base == pytest.approx(20 * math.log10(2),
                                                                 rel=1e-9)


def test_penetration_adds_in_db():
    assert apply_penetration(89.5, 20.0) == 109.5
    with pytest.raises(ValueError):
        apply_penetration(89.5, -1.0)


@given(x=st.floats(-120.0, 60.0))
def test_db_linear_round_trip(x):
    assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-9)


# --- optical channel ---------------------------------------------------------

def _nadir_params():
    # emission exponent 1, 1 cm^2 detector, unity filter, n=1.5, 90 deg FoV
    from b5gcell import default_bundle
    from dataclasses import replace
    lifi = default_bundle().lifi
    return replace(lifi, half_angle=math.pi / 3, area_pd=1e-4, g_filter=1.0,
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


def test_lifi_angles_rejects_coincident_points():
    with pytest.raises(ValueError):
        lifi_angles((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0, 0, -1), (0, 0, 1))


def test_default_offset_gain_frozen():
    # full default parameter set (80 deg FoV) at the shipped desk offset
    from b5gcell import default_bundle
    lifi = default_bundle().lifi
    geom = lifi_angles((0.0, 0.0, 3.0), (1.5, 1.5, 0.85), lifi.n_tx, lifi.n_rx)
    assert lifi_los_gain(geom, lifi) == pytest.approx(4.101841769464348e-06,
                                                      rel=1e-9)
