"""Channel models: outdoor path loss with wall penetration, and the LiFi
line-of-sight link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import lambertian_order, LiFiDeviceParams


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# large-scale losses
# ---------------------------------------------------------------------------

def pathloss_winner_b5a(distance_m: float, carrier_ghz: float) -> float:
    """Rooftop-to-rooftop LOS path loss in dB, valid from 1 m.

    23.5 log10(d) + 42.5 + 20 log10(f / 5.0) with d in metres, f in GHz.
    """
    if distance_m < 1.0:
        raise ValueError(f"path-loss law needs distance >= 1 m, got {distance_m!r}")
    if carrier_ghz <= 0:
        raise ValueError(f"carrier frequency must be > 0 GHz, got {carrier_ghz!r}")
    return 23.5 * math.log10(distance_m) + 42.5 + 20.0 * math.log10(carrier_ghz / 5.0)


def pathloss_freespace(distance_m: float, carrier_ghz: float) -> float:
    """Free-space path loss in dB: 20 log10(4 pi d f / c). Used for short indoor links."""
    if distance_m <= 0:
        raise ValueError(f"distance must be > 0 m, got {distance_m!r}")
    if carrier_ghz <= 0:
        raise ValueError(f"carrier frequency must be > 0 GHz, got {carrier_ghz!r}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * carrier_ghz * 1e9 / 299792458.0)


def apply_penetration(path_loss_db: float, penetration_db: float) -> float:
    """Add a wall-penetration loss to a path-loss budget (both in dB)."""
    if penetration_db < 0:
        raise ValueError(f"penetration loss must be >= 0 dB, got {penetration_db!r}")
    return path_loss_db + penetration_db


# ---------------------------------------------------------------------------
# LiFi line of sight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiFiGeometry:
    """Geometry of one LED-to-photodiode link."""

    distance: float   # m
    phi: float        # radiance angle at the LED, rad
    psi: float        # incidence angle at the photodiode, rad


def lifi_angles(tx_pos, rx_pos, n_tx, n_rx) -> LiFiGeometry:
    """Radiance and incidence angles from positions and unit normals."""
    d = np.asarray(rx_pos, float) - np.asarray(tx_pos, float)
    dist = float(np.linalg.norm(d))
    if dist <= 0:
        raise ValueError("transmitter and receiver positions coincide")
    cos_phi = float(np.dot(d, np.asarray(n_tx, float))) / dist
    cos_psi = float(np.dot(-d, np.asarray(n_rx, float))) / dist
    return LiFiGeometry(distance=dist,
                        phi=math.acos(min(1.0, max(-1.0, cos_phi))),
                        psi=math.acos(min(1.0, max(-1.0, cos_psi))))


def lifi_los_gain(geom: LiFiGeometry, params: LiFiDeviceParams) -> float:
    """Lambertian LOS channel gain; zero outside the receiver field of view.

    (m+1) A / (2 pi d^2) * cos^m(phi) * g_filter * g(psi) * cos(psi), with the
    concentrator gain g(psi) = n^2 / sin^2(FOV) inside the field of view.
    """
    if geom.psi < 0 or geom.psi > params.fov:
        return 0.0
    if geom.phi >= math.pi / 2:
        return 0.0
    m = lambertian_order(params.half_angle)
    conc = params.refr_index ** 2 / math.sin(params.fov) ** 2
    return ((m + 1.0) * params.area_pd / (2.0 * math.pi * geom.distance ** 2)
            * math.cos(geom.phi) ** m
            * params.g_filter * conc * math.cos(geom.psi))
