"""Workload definitions: which `b5gcell sweep` / `b5gcell analyze` pairs each
workload runs, and the generated config of `crowded-random`.

Why these three workloads:

* ``paper-figs`` is what users run: the paper's rate sweeps at M_T = 64, 128
  and 256 plus the default SE sweep on the shipped config.  Eight short
  processes, so interpreter start, package import and config load dominate.
* ``dense-rate`` runs the three variants on a 10,000-point rate grid with the
  fixed layout and n_iue = 4 (a 16-entry beam codebook).  The per-point
  solve, the power-model calls, the CSV/SVG writes and the `analyze` read
  dominate; model build is negligible.
* ``crowded-random`` places 64 users per access point at random and sweeps
  ``sep-mmwave`` and ``nonsep`` at M_T = 128 past the feasibility edge.
  Model build (the n_iue x n_iue beam codebook) and the n x n access solve
  dominate.  One codebook build per pass keeps a pass near 2 s, so a run
  holds a dozen passes; more M_T values would only repeat the same build.

Under the fixed layout the seed changes no result; `crowded-random` draws
its layout from ``seed % N_LAYOUTS`` so that every input it can run has a
stored reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("paper-figs", "dense-rate", "crowded-random")
N_LAYOUTS = 4

RATE_KIND = "total_rate_bps"
SE_KIND = "se_bits_per_hz"


@dataclass(frozen=True)
class Pair:
    """One `sweep` followed by an `analyze` of its output directory."""

    label: str
    variable: str        # 'rate' | 'se'
    grid: str            # min:max:points, as the CLI takes it
    variants: str        # comma list, as the CLI takes it

    @property
    def points(self) -> int:
        return int(self.grid.split(":")[2])

    @property
    def rows(self) -> int:
        return self.points * len(self.variants.split(","))

    @property
    def setup_grid(self) -> str:
        """The same range cut to two points."""
        lo, hi, _ = self.grid.split(":")
        return f"{lo}:{hi}:2"

    @property
    def x_kind(self) -> str:
        return RATE_KIND if self.variable == "rate" else SE_KIND


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: tuple
    program_seed: int        # passed to `sweep --seed`
    reference: str           # stem of the stored reference file
    config: dict | None      # {section: {key: value}}; None = shipped defaults

    def summary(self) -> dict:
        return {
            "pairs": [{"label": p.label, "variable": p.variable, "grid": p.grid,
                       "variants": p.variants} for p in self.pairs],
            "program_seed": self.program_seed,
            "reference": self.reference,
            "config": self.config or "shipped defaults",
        }


def _mt_variants(bases, m_ts) -> str:
    return ",".join(f"{b}:mt={m}" for b, m in zip(bases, m_ts))


PAPER_PAIRS = tuple(
    Pair(f"rate-mt{m}", "rate", "0:6e9:25",
         _mt_variants(("sep-mmwave", "sep-lifi", "nonsep"), (m, m, m)))
    for m in (64, 128, 256)
) + (Pair("se", "se", "0.5:24:48", "sep-mmwave,sep-lifi,nonsep"),)

DENSE_PAIRS = (
    Pair("dense", "rate", "0:6e9:10000",
         _mt_variants(("sep-mmwave", "sep-lifi", "nonsep"), (128, 128, 128))),
)

CROWDED_PAIRS = (
    Pair("crowded", "rate", "0:12e9:200", "sep-mmwave:mt=128,nonsep:mt=128"),
)

# Shipped defaults the crowded config derives its dependent keys from.
DEFAULT_N_BUILDINGS = 4
DEFAULT_DATA_SYMBOLS = 180      # coherence_block 196 minus pilot_len 16
ROOM_HALFWIDTH_M = 2.5
DISTANCE_RANGE_M = (100.0, 400.0)


def crowded_config(layout: int, n_iue: int = 64,
                   n_buildings: int = DEFAULT_N_BUILDINGS) -> dict:
    """Random-placement config with every derived key set consistently.

    n_ue = n_buildings * n_iue, pilot_len = n_ue, coherence_block keeps the
    shipped number of data symbols after the pilots, and the fixed-layout
    keys hold one distance per building and one offset per user, so the
    config stays valid whether or not the loader checks them under random
    placement.
    """
    rng = random.Random(layout)
    n_ue = n_buildings * n_iue
    distances = sorted(round(rng.uniform(*DISTANCE_RANGE_M), 3)
                       for _ in range(n_buildings))
    offsets = [(round(rng.uniform(-ROOM_HALFWIDTH_M, ROOM_HALFWIDTH_M), 3),
                round(rng.uniform(-ROOM_HALFWIDTH_M, ROOM_HALFWIDTH_M), 3))
               for _ in range(n_iue)]
    return {
        "scenario": {
            "n_buildings": n_buildings,
            "n_iue": n_iue,
            "n_ue": n_ue,
            "pilot_len": n_ue,
            "coherence_block": n_ue + DEFAULT_DATA_SYMBOLS,
        },
        "layout": {
            "placement": "random",
            "room_halfwidth_m": ROOM_HALFWIDTH_M,
            "distance_min_m": DISTANCE_RANGE_M[0],
            "distance_max_m": DISTANCE_RANGE_M[1],
            "building_distances_m": ", ".join(repr(d) for d in distances),
            "user_offsets_m": "; ".join(f"{x!r}, {y!r}" for x, y in offsets),
        },
    }


def render_config(config: dict) -> str:
    """The flat `[section]` / `key = value` text the b5gcell loader reads."""
    lines = ["# generated by perfbench/workloads.py"]
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def build(name: str, seed: int) -> Workload:
    program_seed = seed % 2**32     # `sweep --seed` must be non-negative
    if name == "paper-figs":
        return Workload(name, PAPER_PAIRS, program_seed, name, None)
    if name == "dense-rate":
        return Workload(name, DENSE_PAIRS, program_seed, name, None)
    if name == "crowded-random":
        layout = seed % N_LAYOUTS
        return Workload(name, CROWDED_PAIRS, layout, f"{name}-{layout}",
                        crowded_config(layout))
    raise ValueError(f"unknown workload {name!r}")
