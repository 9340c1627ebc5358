"""Scenario engine: wires channels, link metrics and device power models into
per-cell operating points and rate/SE sweeps.

Traffic model: the swept total rate is split equally across every indoor user
of the cell.  In separate mode each building's aggregate then rides over its
relay beams (building rate / beam count per beam), so the backhaul always
carries exactly the indoor traffic it serves.  A point is the outdoor link (the
macro site, relaying to the building arrays or beaming through the wall) plus
the indoor access (the mmWave or LiFi access points).  It is infeasible when any
amplifier would exceed its rating or an indoor link cannot reach the demanded
rate: the LiFi hop's capacity is exceeded, or the mmWave access SINR target
reaches t_star, past which no nonnegative power allocation exists.  Each device
law runs once per model; the model keeps the constants its evaluators read.
"""

import math
import sys
from collections import namedtuple

from .channel import db_to_linear, lifi_angles, lifi_los_gain, pathloss_freespace, \
    pathloss_winner_b5a
from .config import DEFAULTS, ConfigBundle, validate_bundle
from .metrics import kernel_power_mean, required_sinr, sinr_lifi
from .power import (overhead_divisor, pa_power_doherty, power_bmaa, power_iap_mmwave,
                    power_lifi_iap, power_mbs, power_mbsala)
from .records import (POWER_FIELDS, RATE_VARIABLE, SE_VARIABLE, ConfigError, SweepSpec,
                      VariantSpec, add_up, sha256)

# Constants found once per model: the outdoor link's (equal links, equal columns), the access's
Link = namedtuple("Link", "n_users users beams bandwidth gamma static n_arrays k scale "
                          "divisor sigma weakest pa_max")
Access = namedtuple("Access", "bmaa fixed capacity static scale t_star pa_max divisor",
                    defaults=(None,) * 5)


class ScenarioModel:
    """Everything static about one variant; operating points are queried from it."""

    def __init__(self, bundle: ConfigBundle, variant: VariantSpec, seed: int = 0):
        validate_bundle(bundle)
        self.bundle, self.variant = bundle, variant
        self.cfg = cfg = bundle.scenario._replace(m_t=variant.m_t)
        layout = bundle.layout

        # geometry: fixed layout, or a draw from the variant's own seeded stream
        if layout.placement == "random":
            rng = _variant_stream(seed, variant.name)
            distances = sorted(rng.uniform(layout.distance_min_m, layout.distance_max_m,
                                           cfg.n_buildings))
            flat = rng.uniform(-layout.room_halfwidth_m, layout.room_halfwidth_m,
                               2 * cfg.n_iue)
            offsets = list(zip(flat[::2], flat[1::2]))
            placed_by = "layout.distance_min_m, layout.distance_max_m", "layout.room_halfwidth_m"
        else:
            distances = [float(d) for d in layout.building_distances_m]
            offsets = [(float(x), float(y)) for x, y in layout.user_offsets_m]
            placed_by = "layout.building_distances_m", "layout.user_offsets_m"
        self.building_distances, self.user_offsets = distances, offsets

        # outdoor gain per building: the relay's backhaul, or the direct link through the wall
        relay = variant.kind != "nonsep"
        wall, walled = (0.0, "") if relay else (cfg.penetration_loss_db,
                                                "scenario.penetration_loss_db, ")
        self.beta_out = _gains(f"scenario.carrier_freq_out, {walled}{placed_by[0]}",
                               pathloss_winner_b5a, distances, cfg.carrier_freq_out, wall)

        # the swept total rate is split equally over every indoor user
        self.n_devices = cfg.n_arrays * cfg.n_buildings   # building arrays, access points
        self.n_users = self.n_devices * cfg.n_iue
        self.link, self.access = self._link(relay), self._access(relay, placed_by[1])

    def _link(self, relay: bool) -> Link:
        """The outdoor link's constants, from the relay array and macro site laws."""
        cfg, b = self.cfg, self.bundle   # a relay beam carries n_iue / n_beams users
        users, beams, streams, rx = ((cfg.n_iue, cfg.n_beams, cfg.n_beams, cfg.m_r) if relay
                                     else (1, 1, cfg.n_iue, cfg.ue_antennas))
        gains = [beta * cfg.m_t * rx for beta in self.beta_out]   # output t sigma / g_b
        sigma, pa_max = cfg.noise_variance, b.mbsala.pa_max
        mbs = power_mbs(cfg, b, mbsala := power_mbsala(cfg, b, sigma, gains, streams))
        k, scale, tiny = mbsala.p_pa, 1.0, sys.float_info.min
        if sigma / max(gains) < tiny or not tiny <= k < math.inf:   # past float range:
            from decimal import Decimal as D   # sum in decimal, scale by 2^-770 or 2^770
            k = streams * sum(D(2 / math.pi) * (D(sigma) * D(pa_max) / D(g)).sqrt() for g in gains)
            scale = 2.0 ** (770 * (k > D(sys.float_info.max)) - 770 * (k < D(tiny)))
            k = float(k / D(scale))
        # beta * m_t * rx and t sigma / g round monotonically: the least gain's rating binds
        weakest = min(gains)
        return Link(self.n_users, users, beams, cfg.bandwidth_out, cfg.gamma,
                    mbs.p_bb + mbs.p_rf, cfg.n_arrays, k, scale, overhead_divisor(b),
                    sigma, weakest, pa_max)

    def _access(self, relay: bool, placed_by: str) -> Access:
        """The indoor access's constants: each device law once, only the amplifiers
        follow the rate, and identical devices scale by their count."""
        if not relay:
            return Access(0.0, 0.0, math.inf)   # nonsep: no access limit
        cfg, b, layout = self.cfg, self.bundle, self.bundle.layout
        bmaa = self.n_devices * power_bmaa(cfg, b).p_total
        if self.variant.kind == "sep-mmwave":
            dz = layout.user_height_m - layout.iap_height_m   # one room in every building
            self.beta_access = _gains("scenario.carrier_freq_in, layout.iap_height_m, "
                                      f"layout.user_height_m, {placed_by}", pathloss_freespace,
                                      [math.sqrt(x * x + y * y + dz * dz)
                                       for x, y in self.user_offsets], cfg.carrier_freq_in)
            # indoor noise: identical density and noise figure, wider band
            self.sigma_in = cfg.noise_variance * cfg.bandwidth_in / cfg.bandwidth_out
            # Evenly spaced sine-space beams, one per indoor user; a user's departure
            # angle is uniform over its beam's cell.  E_ij, the mean power of beam j over
            # user i's cell, depends only on (i - j) mod n (the beams are even in sine
            # space and the kernel has period 2), so the access system (I - t A) p =
            # t sigma_in D^-1 1, A_ij = E_ij / E_00 off the diagonal and D = diag(beta_i
            # E_00), has the all-ones Perron vector: summing its rows gives the total
            # power in closed form, scale t / (1 - t lambda_0), with scale = sigma_in
            # sum_i 1 / (beta_i E_00) and lambda_0 = sum_{j != 0} E_0j / E_00.  Every
            # power is nonnegative exactly when t is below t_star = 1 / lambda_0 (inf for
            # a single user).
            n, width = cfg.n_iue, 2.0 / cfg.n_iue
            row = [kernel_power_mean(cfg.m_t_iap, i * width, width / 2) for i in range(n)]
            iap = power_iap_mmwave(cfg, b)
            return Access(bmaa, None, None, iap.p_bb + iap.p_rf,
                          self.sigma_in * add_up([1.0 / (beta * row[0])
                                                  for beta in self.beta_access]),
                          row[0] / add_up(row[1:]) if n > 1 else math.inf,
                          b.iap.pa_max, overhead_divisor(b))
        lifi, iap_pos = b.lifi, (0.0, 0.0, layout.iap_height_m)
        try:   # a gain past float range, or a divisor that rounds to 0
            self.lifi_h = [lifi_los_gain(lifi_angles(iap_pos, (x, y, layout.user_height_m),
                                                     lifi.n_tx, lifi.n_rx), lifi)
                           for x, y in self.user_offsets]
            self.lifi_sinr = [sinr_lifi(lifi.c_f, lifi.p_opt, hu, lifi.n0, cfg.bandwidth_in)
                              for hu in self.lifi_h]
            share = cfg.bandwidth_in / cfg.n_iue   # each user must fit its TDMA share
            capacity = min(cfg.gamma * share * math.log2(1.0 + sinr) for sinr in self.lifi_sinr)
            iap = power_lifi_iap(b.lifi_led, add_up(self.lifi_h) / cfg.n_iue)
        except (ArithmeticError, ValueError):
            keys = [key for key in DEFAULTS if key.startswith("lifi")] + [
                "scenario.bandwidth_in", "layout.iap_height_m", "layout.user_height_m"]
            raise ConfigError(f"{', '.join(keys)}, {placed_by}: must give a LiFi link "
                              "and LED drive in float range") from None
        return Access(bmaa, self.n_devices * iap.p_total, capacity)

    # -- evaluation over a grid ---------------------------------------------

    def _access_power(self, sinr_targets) -> list:
        """Summed indoor transmit power per SINR target, NaN at inf or from t_star on."""
        scale, t_star = self.access.scale, self.access.t_star
        return [0.0 if t == 0.0 else scale * t / (1.0 - t / t_star) if 0.0 < t < t_star
                else math.nan for t in sinr_targets]

    def _rates(self, xs, x_kind: str) -> list:
        """The grid *xs* of kind *x_kind*, checked, as total rates (bit/s)."""
        if x_kind not in (RATE_VARIABLE, SE_VARIABLE):
            raise ValueError(f"unknown grid kind {x_kind!r}: expected {RATE_VARIABLE} "
                             f"or {SE_VARIABLE}")
        rates = [float(x) for x in xs]
        bad = [x for x in rates if not 0.0 <= x < math.inf]   # NaN fails both
        if bad:
            what = "SE target" if x_kind == SE_VARIABLE else "total rate"
            raise ValueError(f"{what} must be finite and >= 0, got {bad[0]!r}")
        if x_kind == SE_VARIABLE:
            rates = [x * self.cfg.bandwidth_out * self.n_users for x in rates]
        return rates

    def _outdoor(self, rates) -> tuple:
        """The outdoor link's (macro site power, every amplifier within its rating)."""
        n_users, users, beams, bandwidth, gamma, static, arrays, k, scale, divisor, sigma, \
            weakest, pa_max = self.link
        sqrt, target = math.sqrt, required_sinr([x / n_users * users / beams / bandwidth
                                                 for x in rates], gamma)
        return ([(static + arrays * (k * sqrt(t) * scale)) / divisor for t in target],
                [t * sigma / weakest <= pa_max for t in target])

    def _indoor(self, rates) -> tuple:
        """The indoor access's (access points' summed power, every user served)."""
        a, n_users = self.access, self.n_users
        if a.scale is None:   # fixed drive, and the LiFi capacity
            return [a.fixed] * len(rates), [x / n_users <= a.capacity for x in rates]
        p_out = self._access_power(required_sinr(
            [x / n_users / self.cfg.bandwidth_in for x in rates], self.cfg.gamma))
        n, static, divisor = self.n_devices, a.static, a.divisor
        return ([n * ((static + pa) / divisor) for pa in pa_power_doherty(p_out, a.pa_max)],
                [p <= a.pa_max for p in p_out])   # False where NaN (unmeetable)

    def points(self, xs, x_kind: str = RATE_VARIABLE) -> dict:
        """Evaluate the cell at every grid value in *xs*, any sequence of
        floats: total offered rates (bit/s), or for SE_VARIABLE per-link SE
        targets (bit/s/Hz on the outdoor band).  At a per-link SE every user
        demands se * bandwidth_out, so with the default layout the relay beams
        and direct links run at exactly it.

        A point is the outdoor link plus the indoor access.  Returns the list
        of bools ``feasible`` and one list of floats per POWER_FIELDS name, NaN
        where infeasible.  Only the amplifiers depend on the rate, and distinct
        terms add in order, so every entry equals its one-point evaluation
        exactly.  An amplifier past its rating, or a total power of 0 or past
        float range, makes its point infeasible.
        """
        rates = self._rates(xs, x_kind)
        return self._add(rates, self._outdoor(rates))

    def _add(self, rates, outdoor) -> dict:
        """The outdoor link's columns *outdoor* plus the building arrays and the access."""
        (p_mbs, link_ok), (iap_sum, served) = outdoor, self._indoor(rates)
        bmaa_sum = self.access.bmaa   # the building arrays' summed draw
        total = [p + bmaa_sum + iap for p, iap in zip(p_mbs, iap_sum)]
        feasible = [ok and link and 0.0 < t < math.inf
                    for ok, link, t in zip(served, link_ok, total)]
        bandwidth = self.cfg.bandwidth_out   # EE is defined only at a feasible point
        ee = [x / bandwidth / t if ok else math.nan for x, t, ok in zip(rates, total, feasible)]
        values = (total, ee, p_mbs[:], [bmaa_sum] * len(rates), iap_sum)   # each a new list
        for i, ok in enumerate(feasible):
            if not ok:
                for column in values:
                    column[i] = math.nan
        return {"feasible": feasible, **dict(zip(POWER_FIELDS, values))}


def _gains(keys: str, law, distances, carrier_ghz: float, wall_db: float = 0.0) -> list:
    """Linear gains of the path loss *law* plus *wall_db* at *distances*, each finite and
    normal (a subnormal one may round a product to 0), else ConfigError naming *keys*."""
    try:
        gains = [db_to_linear(-(law(d, carrier_ghz) + wall_db)) for d in distances]
    except (ValueError, ArithmeticError):   # a loss of log10(0), or a gain past float range
        gains = [0.0]
    if not all(sys.float_info.min <= g < math.inf for g in gains):
        raise ConfigError(f"{keys}: must give large-scale gains that are finite and normal")
    return gains


def build_scenario(bundle: ConfigBundle, variant: VariantSpec, seed: int = 0) -> ScenarioModel:
    """Build the model for one variant; *seed* picks its random placement."""
    return ScenarioModel(bundle, variant, seed)


def _variant_stream(seed: int, name: str):
    """The stream of ``np.random.default_rng(np.random.SeedSequence([seed, digest]))``,
    *digest* the first 8 bytes of the name's SHA-256: keyed on the variant name, not its
    list position, so reordering or adding variants moves no one's random placement."""
    from .stream import Stream   # random placement only
    return Stream([seed, int.from_bytes(sha256(name.encode()).digest()[:8], "big")])


def run_sweep(bundle: ConfigBundle, spec: SweepSpec, seed: int = 0) -> dict:
    """Evaluate every variant over the grid: per variant name, in ``spec.variants``
    order, the columns that ``ScenarioModel.points`` gives.  Deterministic for a
    (config, seed).

    Under random placement each variant draws from a stream keyed on its
    name, so evaluation order cannot change random placements.
    """
    columns, links, rates = {}, {}, None   # links: each distinct Link, evaluated once
    for variant in spec.variants:
        model = build_scenario(bundle, variant, seed)
        if rates is None:   # the same for every variant: checked and converted once
            rates = model._rates(spec.grid, spec.variable)
        if (link := links.get(model.link)) is None:
            link = links[model.link] = model._outdoor(rates)
        columns[variant.name] = model._add(rates, link)
    return columns
