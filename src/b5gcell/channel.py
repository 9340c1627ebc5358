"""Channel models: outdoor and indoor path loss, and the LiFi line-of-sight link.
"""

import math
from collections import namedtuple


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# large-scale losses
# ---------------------------------------------------------------------------

def pathloss_winner_b5a(distance_m: float, carrier_ghz: float) -> float:
    """Rooftop-to-rooftop LOS path loss in dB, valid from 1 m.

    23.5 log10(d) + 42.5 + 20 log10(f / 5.0) with d in metres, f in GHz.
    """
    return 23.5 * math.log10(distance_m) + 42.5 + 20.0 * math.log10(carrier_ghz / 5.0)


def pathloss_freespace(distance_m: float, carrier_ghz: float) -> float:
    """Free-space path loss in dB: 20 log10(4 pi d f / c). Used for short indoor links."""
    return 20.0 * math.log10(4.0 * math.pi * distance_m * carrier_ghz * 1e9 / 299792458.0)


# ---------------------------------------------------------------------------
# LiFi line of sight
# ---------------------------------------------------------------------------

def lambertian_order(half_angle: float) -> float:
    """Lambertian mode number for an LED half-intensity angle (rad): -1/log2(cos a)."""
    return -1.0 / math.log2(math.cos(half_angle))


LiFiGeometry = namedtuple("LiFiGeometry", "distance phi psi")
LiFiGeometry.__doc__ = ("Geometry of one LED-to-photodiode link: distance (m), radiance "
                        "angle at the LED and incidence angle at the photodiode (rad).")


def lifi_angles(tx_pos, rx_pos, n_tx, n_rx) -> LiFiGeometry:
    """Radiance and incidence angles from positions and unit normals.  The
    distance and both dot products are plain sums in coordinate order, so they
    round the same on every machine."""
    dx, dy, dz = (float(r) - float(t) for r, t in zip(rx_pos, tx_pos))
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    cos_phi = (dx * n_tx[0] + dy * n_tx[1] + dz * n_tx[2]) / dist
    cos_psi = (-dx * n_rx[0] + -dy * n_rx[1] + -dz * n_rx[2]) / dist
    return LiFiGeometry(distance=dist,
                        phi=math.acos(min(1.0, max(-1.0, cos_phi))),
                        psi=math.acos(min(1.0, max(-1.0, cos_psi))))


def lifi_los_gain(geom: LiFiGeometry, lifi) -> float:
    """Lambertian LOS channel gain; zero outside the receiver field of view.

    (m+1) A / (2 pi d^2) * cos^m(phi) * g_filter * g(psi) * cos(psi), with the
    concentrator gain g(psi) = n^2 / sin^2(FOV) inside the field of view and
    the optics read from *lifi*, a bundle's ``lifi`` section.
    """
    if geom.psi < 0 or geom.psi > lifi.fov:
        return 0.0
    if geom.phi >= math.pi / 2:
        return 0.0
    m = lambertian_order(lifi.half_angle)
    conc = lifi.refr_index ** 2 / math.sin(lifi.fov) ** 2
    return ((m + 1.0) * lifi.area_pd / (2.0 * math.pi * geom.distance ** 2)
            * math.cos(geom.phi) ** m
            * lifi.g_filter * conc * math.cos(geom.psi))
