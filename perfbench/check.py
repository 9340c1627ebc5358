"""Output checks for the benchmark's sweep/analyze pairs.

Every pair's ``results.csv`` must keep the exact header, the row count, the
variant/grid order and every feasibility flag of the stored reference; its
numbers must match the reference rows within ``REL_TOL``.  The tolerance
admits last-digit changes from reordered arithmetic and the ~1e-5 relative
change of the beam codebook that an exact quadrature brings (which moves the
outputs by less than 1e-11).  Only the floor, peak and crossing keys of
``summary.txt`` are compared, because the ratio and saving lines are expected
to change format.  ``paper-figs`` must also reproduce the README's headline
answers, computed here from ``results.csv`` alone.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

CSV_HEADER = "variant,x_value,x_kind,total_power_w,ee,feasible,p_mbs_w,p_bmaa_w,p_iap_w"
NUMERIC = ("total_power_w", "ee", "p_mbs_w", "p_bmaa_w", "p_iap_w")
REL_TOL = 1e-6
SUM_TOL = 1e-9          # total_power_w against the sum of its three parts
MAX_SAMPLES = 800       # reference rows stored per pair
MAX_ERRORS = 5          # reported per pair
SUMMARY_SUFFIXES = (".floor_power_w", ".max_feasible_x", ".peak_ee", ".peak_ee_x",
                    ".feasible")

# README: sep-mmwave/nonsep break-even per M_T, mean LiFi saving at M_T=64.
HEADLINE_CROSSINGS = {64: 2.08e9, 128: 2.40e9, 256: 2.73e9}
HEADLINE_CROSSING_TOL = 0.01e9
HEADLINE_SAVING_PERCENT = 11.5
HEADLINE_SAVING_TOL = 0.1

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# -- reading ---------------------------------------------------------------

def read_results(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        return "", []
    return lines[0], [ln.split(",") for ln in lines[1:]]


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for ln in path.read_text().splitlines():
        key, sep, value = ln.rpartition("=")   # keys may hold "mt=N"
        if sep:
            out[key] = value
    return out


def _num(text: str) -> float | None:
    return float(text) if text else None


def grid_values(grid: str) -> list[float]:
    lo, hi, n = grid.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _sample_indices(n_rows: int) -> list[int]:
    stride = max(1, math.ceil(n_rows / MAX_SAMPLES))
    return sorted(set(range(0, n_rows, stride)) | {n_rows - 1})


def _rle(flags: list[bool]) -> list[list]:
    runs: list[list] = []
    for f in flags:
        if runs and runs[-1][0] == f:
            runs[-1][1] += 1
        else:
            runs.append([f, 1])
    return runs


def _unrle(runs) -> list[bool]:
    return [f for f, count in runs for _ in range(count)]


def _summary_keys(summary: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in summary.items()
            if k.startswith("crossing.") or k.endswith(SUMMARY_SUFFIXES)}


# -- reference ---------------------------------------------------------------

def make_reference(rows: list[list[str]], summary: dict[str, str]) -> dict:
    """Reference entry for one pair, from outputs known to be right."""
    return {
        "n_rows": len(rows),
        "flags": _rle([r[5] == "true" for r in rows]),
        "samples": {str(i): [_num(f) for f in (rows[i][3], rows[i][4], rows[i][6],
                                               rows[i][7], rows[i][8])]
                    for i in _sample_indices(len(rows))},
        "summary": _summary_keys(summary),
    }


def reference_path(stem: str) -> Path:
    return REFERENCE_DIR / f"{stem}.json.gz"


def load_reference(stem: str) -> dict:
    with gzip.open(reference_path(stem), "rt") as fh:
        return json.load(fh)


def save_reference(stem: str, ref: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when the content is
    with open(reference_path(stem), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(ref, indent=0, sort_keys=True) + "\n").encode())


# -- checks ------------------------------------------------------------------

def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def check_results(header: str, rows: list[list[str]], pair, ref: dict) -> list[str]:
    """Errors of one results.csv against its pair spec and reference entry."""
    if header != CSV_HEADER:
        return [f"{pair.label}: header {header!r}"]
    if len(rows) != ref["n_rows"] or len(rows) != pair.rows:
        return [f"{pair.label}: {len(rows)} rows, expected {ref['n_rows']}"]
    errors: list[str] = []
    names = pair.variants.split(",")
    grid = grid_values(pair.grid)
    flags = _unrle(ref["flags"])
    for i, row in enumerate(rows):
        if len(errors) >= MAX_ERRORS:
            break
        where = f"{pair.label} row {i + 1}"
        if len(row) != 9:
            errors.append(f"{where}: {len(row)} fields")
            continue
        variant, x_text, kind, feasible = row[0], row[1], row[2], row[5]
        if variant != names[i // pair.points] or kind != pair.x_kind:
            errors.append(f"{where}: variant/kind {variant!r} {kind!r}")
            continue
        try:
            x = float(x_text)
            values = [_num(row[j]) for j in (3, 4, 6, 7, 8)]
        except ValueError:
            errors.append(f"{where}: unparseable number in {row}")
            continue
        if not _close(x, grid[i % pair.points], 1e-12):
            errors.append(f"{where}: x={x!r}, grid has {grid[i % pair.points]!r}")
        if feasible not in ("true", "false") or (feasible == "true") != flags[i]:
            errors.append(f"{where}: feasible={feasible!r}, reference {flags[i]}")
            continue
        if not flags[i]:
            if any(v is not None for v in values):
                errors.append(f"{where}: infeasible row carries numbers")
            continue
        if any(v is None or not math.isfinite(v) for v in values):
            errors.append(f"{where}: feasible row with missing or non-finite numbers")
            continue
        total, _, mbs, bmaa, iap = values
        if not _close(total, mbs + bmaa + iap, SUM_TOL):
            errors.append(f"{where}: total {total!r} != parts {mbs + bmaa + iap!r}")
        expected = ref["samples"].get(str(i))
        if expected is not None:
            for name, got, want in zip(NUMERIC, values, expected):
                if not _close(got, want):
                    errors.append(f"{where}: {name}={got!r}, reference {want!r}")
                    break
    return errors


def check_summary(summary: dict[str, str], pair, ref: dict) -> list[str]:
    """Floor, feasibility-limit, peak and crossing keys against the reference."""
    got, want = _summary_keys(summary), ref["summary"]
    if set(got) != set(want):
        return [f"{pair.label}: summary keys differ: missing "
                f"{sorted(set(want) - set(got))[:3]}, extra {sorted(set(got) - set(want))[:3]}"]
    grid = grid_values(pair.grid)
    step = grid[1] - grid[0]
    errors = []
    for key, text in want.items():
        if text == "none" or got[key] == "none":
            if got[key] != text:
                errors.append(f"{pair.label}: summary {key}={got[key]}, reference {text}")
            continue
        try:
            a, b = float(got[key]), float(text)
        except ValueError:
            errors.append(f"{pair.label}: summary {key}={got[key]!r} is not a number")
            continue
        ok = abs(a - b) <= step if key.endswith("_x") else _close(a, b)
        if not ok:
            errors.append(f"{pair.label}: summary {key}={a!r}, reference {b!r}")
    return errors[:MAX_ERRORS]


# -- paper-figs headline answers ---------------------------------------------

def _columns(rows, variant):
    mine = [r for r in rows if r[0] == variant]
    return ([float(r[1]) for r in mine],
            [_num(r[3]) if r[5] == "true" else None for r in mine],
            [_num(r[4]) if r[5] == "true" else None for r in mine])


def first_crossing(xs, pa, pb):
    """Linear interpolation at the first sign change of pa - pb between two
    neighbouring points feasible for both; None without one."""
    prev = None
    for x, a, b in zip(xs, pa, pb):
        if a is None or b is None:
            prev = None
            continue
        d = a - b
        if prev is not None and prev[1] * d < 0:
            return prev[0] + (x - prev[0]) * abs(prev[1]) / (abs(prev[1]) + abs(d))
        prev = (x, d)
    return None


def headline_errors(rows_by_label: dict[str, list[list[str]]]) -> list[str]:
    """The README's answers, from the paper-figs results.csv files."""
    errors = []
    for m_t, target in HEADLINE_CROSSINGS.items():
        rows = rows_by_label[f"rate-mt{m_t}"]
        xs, relay, _ = _columns(rows, f"sep-mmwave:mt={m_t}")
        _, direct, _ = _columns(rows, f"nonsep:mt={m_t}")
        cross = first_crossing(xs, relay, direct)
        if cross is None or abs(cross - target) > HEADLINE_CROSSING_TOL:
            errors.append(f"headline: M_T={m_t} break-even {cross!r}, expected ~{target:.3g}")
    rows = rows_by_label["rate-mt64"]
    _, lifi, _ = _columns(rows, "sep-lifi:mt=64")
    _, mmwave, _ = _columns(rows, "sep-mmwave:mt=64")
    savings = [1.0 - a / b for a, b in zip(lifi, mmwave) if a is not None and b is not None]
    saving = 100.0 * sum(savings) / len(savings) if savings else None
    if saving is None or abs(saving - HEADLINE_SAVING_PERCENT) > HEADLINE_SAVING_TOL:
        errors.append(f"headline: mean LiFi saving {saving!r} %, expected "
                      f"~{HEADLINE_SAVING_PERCENT}")
    rows = rows_by_label["se"]
    for variant in dict.fromkeys(r[0] for r in rows):
        xs, _, ee = _columns(rows, variant)
        feasible = [i for i, e in enumerate(ee) if e is not None]
        peak = max(feasible, key=lambda i: ee[i]) if feasible else None
        if peak is None or not feasible[0] < peak < feasible[-1]:
            errors.append(f"headline: {variant} EE-SE peak not interior")
    return errors
