"""Acceptance gate: every headline requirement, one printed pass/fail line each.

Grouped the same way the requirements are stated: exact formula checks,
oracle equivalence, figure-shape reproduction, loose calibration targets,
and determinism/schema.  Each line prints [PASS]/[FAIL] with the measured
number so a red run says what was off, not only that something was.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from b5gcell import default_bundle
from b5gcell.channel import lambertian_order, pathloss_winner_b5a
from b5gcell.analyze import _summarize
from b5gcell.cli import main as cli_main
from b5gcell.metrics import required_sinr
from b5gcell.power import (
    overhead_divisor,
    pa_power_doherty,
    power_bmaa,
    power_iap_mmwave,
    power_lifi_iap,
    power_mbsala,
)
from b5gcell.scenario import SE_VARIABLE, SweepSpec, VariantSpec, build_scenario, run_sweep
from kernel_oracles import (
    UniformAngles,
    expected_kernel_power,
    fejer_kernel,
    grid_kernel_power,
    mc_kernel_power,
)
from link_oracles import macro_snr_draws, snr_macro, spectral_efficiency
from result_columns import point_at
from scalar_oracle import with_amplifier

GOLDEN = Path(__file__).parent / "golden" / "device_powers.txt"
RATE_GRID = tuple(float(x) for x in np.linspace(0.0, 6e9, 25))
SE_GRID = tuple(float(x) for x in np.linspace(0.5, 24.0, 48))


def _flush(lines):
    for _, line in lines:
        print(line)
    failed = [line for ok, line in lines if not ok]
    assert not failed, "\n".join(failed)


def _check(lines, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    lines.append((bool(ok), f"[{tag}] {name}{suffix}"))


def _rel(a, b):
    return abs(a - b) / abs(b)


def _summary(grid, variants, columns):
    """analyze's summary of the *variants*' engine columns over *grid* as {key: value}."""
    return dict(line.rsplit("=", 1) for line in _summarize(grid, variants, columns))


# --- 1. exact formula checks ---------------------------------------------------

def test_exact_formula_checks():
    lines = []

    ok = (_rel(pathloss_winner_b5a(100.0, 5.0), 89.5) <= 1e-9
          and _rel(pathloss_winner_b5a(1.0, 5.0), 42.5) <= 1e-9)
    _check(lines, "pathloss reference points 89.5 / 42.5 dB", ok,
           f"got {pathloss_winner_b5a(100.0, 5.0):.10f} / "
           f"{pathloss_winner_b5a(1.0, 5.0):.10f}")

    ok = (_rel(lambertian_order(math.pi / 3), 1.0) <= 1e-9
          and _rel(lambertian_order(math.pi / 4), 2.0) <= 1e-9)
    _check(lines, "lambertian order at 60 / 45 deg", ok,
           f"got {lambertian_order(math.pi / 3):.12f} / "
           f"{lambertian_order(math.pi / 4):.12f}")

    worst = max(abs(fejer_kernel(m, 0.0) - 1.0) for m in range(1, 513))
    ok = (worst <= 1e-9 and abs(fejer_kernel(2, 1.0)) <= 1e-12
          and abs(fejer_kernel(4, 0.5)) <= 1e-12)
    _check(lines, "beam kernel: unity at broadside (M=1..512), known zeros", ok,
           f"worst broadside dev {worst:.2e}")

    below = math.nextafter(0.25, 0.0)
    one, low, below_q, at_q = (pa_power_doherty([p], 1.0)[0] for p in (1.0, 0.01, below, 0.25))
    ok = (_rel(one, 6 / math.pi) <= 1e-9
          and _rel(low, 2 / (10 * math.pi)) <= 1e-9
          and _rel(below_q, (2 / math.pi) * 0.5) <= 1e-9
          and _rel(at_q, (6 / math.pi) * 0.5) <= 1e-9)
    _check(lines, "doherty values incl. both branch values at quarter rating", ok,
           f"jump {at_q / below_q:.6f}x")

    divisor = overhead_divisor(default_bundle())
    ok = _rel(1.0 / divisor, 1.2778736182991504) <= 1e-9
    _check(lines, "supply overhead: 1 W numerator -> 1.27787 W", ok,
           f"got {1.0 / divisor:.10f}")

    rng = np.random.default_rng(2024)
    exact = True
    for _ in range(100):
        beta = 10.0 ** rng.uniform(-14, -4)
        p = 10.0 ** rng.uniform(-3, 2)
        s2 = 10.0 ** rng.uniform(-16, -10)
        m_t = int(rng.integers(1, 512))
        m_r = int(rng.integers(1, 512))
        base = snr_macro(beta, m_t, m_r, p, s2)
        exact &= snr_macro(beta, 2 * m_t, m_r, p, s2) == 2.0 * base
        exact &= snr_macro(beta, m_t, 2 * m_r, p, s2) == 2.0 * base
    _check(lines, "macro SNR doubles exactly with either array (100 configs)", exact)

    _flush(lines)


# --- 2. oracle equivalence -----------------------------------------------------

def test_oracle_equivalence():
    lines = []
    start = time.perf_counter()

    rng = np.random.default_rng(99)
    worst = worst_grid = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 129))
        lo = rng.uniform(-1.0, 0.8)
        hi = lo + rng.uniform(0.05, 1.0 - max(lo, 0.0) / 2)
        hi = min(hi, 1.0)
        cell = UniformAngles(lo, hi)
        beam = rng.uniform(-1.0, 1.0)
        exact = expected_kernel_power(m, beam, cell)
        mc = mc_kernel_power(m, beam, cell, n_draws=1_000_000, rng=rng)
        worst = max(worst, _rel(mc, exact))
        worst_grid = max(worst_grid, _rel(exact, grid_kernel_power(m, beam, cell, 2 ** 16)))
    elapsed = time.perf_counter() - start
    _check(lines, "beam expectation: closed form vs 2^16-point grid within 1e-6 "
           "(20 cases)", worst_grid <= 1e-6, f"worst {worst_grid:.2e}")
    _check(lines, "beam expectation: closed form vs 1e6-draw MC within 1% (20 cases)",
           worst <= 1e-2 and elapsed <= 60.0,
           f"worst {worst * 100:.4f}%, {elapsed:.1f}s")

    rng = np.random.default_rng(7)
    worst = 0.0
    for m_t, m_r in ((64, 64), (128, 64), (256, 64)):
        for mean in (1.0, 10.0, 1000.0):
            draws = macro_snr_draws(mean, m_t, m_r, 100_000, rng)
            approx = spectral_efficiency(mean)
            exact = spectral_efficiency(mean, mode="exact-mc", draws=draws)
            worst = max(worst, _rel(approx, exact))
    _check(lines, "SE: approx-at-mean vs exact-MC within 2% (hardened arrays)",
           worst <= 2e-2, f"worst {worst * 100:.4f}%")

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        se = rng.uniform(0.01, 30.0)
        gamma = rng.uniform(0.3, 1.0)
        back = spectral_efficiency(required_sinr([se], gamma)[0], gamma=gamma)
        worst = max(worst, _rel(back, se))
    _check(lines, "required-SINR / SE round trip within 1e-12 (1000 values)",
           worst <= 1e-12, f"worst {worst:.2e}")

    _flush(lines)


# --- 3. figure-shape reproduction ------------------------------------------------

def test_figure_shape_reproduction():
    lines = []
    bundle = default_bundle()
    start = time.perf_counter()

    crossings = {}
    for m_t in (64, 128, 256):
        spec = SweepSpec("total_rate_bps", RATE_GRID,
                         (VariantSpec("sep", "sep-mmwave", m_t),
                          VariantSpec("non", "nonsep", m_t)))
        result = run_sweep(bundle, spec, seed=0)
        # total power per grid value, NaN where infeasible
        sep, non = (result.columns[name]["total_power_w"] for name in ("sep", "non"))

        flips = 0
        prev = None
        for a, b in zip(sep, non):
            if math.isnan(a) or math.isnan(b):
                prev = None
                continue
            diff = b - a
            if prev is not None and prev * diff < 0:
                flips += 1
            prev = diff
        cross = _summary(RATE_GRID, spec.variants, result.columns).get("crossing.sep.vs.non")
        cross = None if cross is None else float(cross)
        crossings[m_t] = cross
        _check(lines, f"M_T={m_t}: exactly one separate/non-separate crossing",
               flips == 1 and cross is not None,
               f"{flips} sign flips, crossing at "
               f"{cross / 1e9:.3f} Gbit/s" if cross else f"{flips} sign flips")

        sides_ok = True
        for x, a, b in zip(RATE_GRID, sep, non):
            if math.isnan(a) or math.isnan(b) or cross is None:
                continue
            if x < cross:
                sides_ok &= b < a
            elif x > cross:
                sides_ok &= a < b
        _check(lines, f"M_T={m_t}: direct cheaper below crossing, relayed above",
               sides_ok)

        for name, powers in (("separate", sep), ("non-separate", non)):
            feas = [p for p in powers if not math.isnan(p)]
            mono = all(x <= y + 1e-9 for x, y in zip(feas, feas[1:]))
            _check(lines, f"M_T={m_t}: {name} power nondecreasing in rate", mono)

    peaks = {}
    for sep_kind in ("sep-mmwave", "nonsep"):
        for m_t in (64, 128, 256):
            model = build_scenario(bundle, VariantSpec("v", sep_kind, m_t))
            column = model.points(SE_GRID, SE_VARIABLE)
            summary = _summary(SE_GRID, (model.variant,), {"v": column})
            peak_ee, peak_se = float(summary["v.peak_ee"]), float(summary["v.peak_ee_x"])
            peaks[(sep_kind, m_t)] = peak_ee
            if m_t in (128, 256):
                # one rise: no ascent after a descent, flat steps aside
                ee = [e for e, ok in zip(column["ee"], column["feasible"]) if ok]
                steps = [b - a for a, b in zip(ee, ee[1:]) if b != a]
                rises = sum(1 for i, d in enumerate(steps)
                            if d > 0 and (i == 0 or steps[i - 1] < 0))
                _check(lines,
                       f"EE-SE {sep_kind} M_T={m_t}: interior maximum, single rise",
                       summary["v.peak_ee_interior"] == "true" and rises <= 1,
                       f"peak {peak_ee:.3f} (bit/s/Hz)/W at SE {peak_se:.2f}")
    for sep_kind in ("sep-mmwave", "nonsep"):
        hi, lo = peaks[(sep_kind, 256)], peaks[(sep_kind, 64)]
        _check(lines, f"EE-SE {sep_kind}: peak at M_T=256 >= peak at M_T=64",
               hi >= lo, f"{hi:.3f} vs {lo:.3f}")

    elapsed = time.perf_counter() - start
    _check(lines, "figure-shape battery under 60 s", elapsed <= 60.0,
           f"{elapsed:.1f}s")
    _flush(lines)


# --- 4. calibration targets -----------------------------------------------------

def test_calibration_targets():
    lines = []
    bundle = default_bundle()

    sep = build_scenario(bundle, VariantSpec("sep", "sep-mmwave", 256))
    non = build_scenario(bundle, VariantSpec("non", "nonsep", 256))
    p_sep = point_at(sep, 5e9)
    p_non = point_at(non, 5e9)
    ok = (p_sep.feasible and p_non.feasible
          and p_non.total_power_w / p_sep.total_power_w >= 2.0)
    ratio = (p_non.total_power_w / p_sep.total_power_w
             if p_sep.feasible and p_non.feasible else float("nan"))
    _check(lines, "M_T=256 at 5 Gbit/s: direct-to-relayed power ratio >= 2", ok,
           f"achieved {ratio:.2f}x ({p_non.total_power_w:.0f} W vs "
           f"{p_sep.total_power_w:.0f} W)")

    spec = SweepSpec("total_rate_bps", RATE_GRID,
                     (VariantSpec("mmwave", "sep-mmwave", 64),
                      VariantSpec("lifi", "sep-lifi", 64)))
    result = run_sweep(bundle, spec, seed=0)
    lifi, mmwave = result.columns["lifi"], result.columns["mmwave"]
    savings = [1.0 - a / b for a, b, ok_a, ok_b in zip(lifi["total_power_w"],
                                                       mmwave["total_power_w"],
                                                       lifi["feasible"], mmwave["feasible"])
               if ok_a and ok_b]
    mean = float(np.mean(savings))
    ok = all(s > 0 for s in savings) and 0.05 <= mean <= 0.20
    _check(lines, "LiFi beats mmWave access at every point, mean saving in [5%,20%]",
           ok, f"mean {mean * 100:.2f}%, min {min(savings) * 100:.2f}%")

    _flush(lines)


# --- 5. determinism and schema ----------------------------------------------------

def test_determinism_and_schema(tmp_path):
    lines = []

    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        code = cli_main(["sweep", "--out", str(out), "--seed", "0",
                         "--grid", "0:6e9:25"])
        assert code == 0
    identical = ((dirs[0] / "results.csv").read_bytes()
                 == (dirs[1] / "results.csv").read_bytes())
    _check(lines, "identical (config, seed) -> byte-identical results.csv",
           identical)

    bundle = default_bundle()
    cfg = bundle.scenario
    mbsala = power_mbsala(cfg, bundle, 1.0, [1.0], 4)
    bmaa = power_bmaa(cfg, bundle)
    iap = with_amplifier(power_iap_mmwave(cfg, bundle),
                         pa_power_doherty([0.1], bundle.iap.pa_max)[0], overhead_divisor(bundle))
    lifi = power_lifi_iap(bundle.lifi_led, 1e-5)
    current = {
        "mbsala.p_bb": mbsala.p_bb, "mbsala.p_rf": mbsala.p_rf,
        "mbsala.p_pa": mbsala.p_pa, "mbsala.p_total": mbsala.p_total,
        "bmaa.p_bb": bmaa.p_bb, "bmaa.p_rf": bmaa.p_rf,
        "bmaa.p_total": bmaa.p_total,
        "iap.p_bb": iap.p_bb, "iap.p_rf": iap.p_rf,
        "iap.p_pa": iap.p_pa, "iap.p_total": iap.p_total,
        "lifi.p_illum": lifi.p_illum, "lifi.p_comm": lifi.p_comm,
        "lifi.p_total": lifi.p_total,
    }
    golden = {}
    for raw in GOLDEN.read_text().splitlines():
        raw = raw.strip()
        if raw and not raw.startswith("#"):
            key, _, val = raw.partition("=")
            golden[key] = float(val)
    worst = max(_rel(current[key], golden[key]) for key in golden)
    _check(lines, "golden device powers match the independent oracle at 1e-6",
           set(golden) == set(current) and worst <= 1e-6, f"worst {worst:.2e}")

    _flush(lines)
