"""Workload generation: seed -> extrisk config files and CLI invocations.

The program only ever sees the generated JSON configs and the argument
vectors built here. A sweep grid axis is a log-spaced lattice over the range
given in README.md, one value per equal log-width stratum at a fixed phase
within it, each value scaled by a seed-drawn factor exp(+-JITTER).

Why a jittered lattice and not free log-uniform draws: the series engine's
cost per row jumps between zero (divergent), about 1e4 terms and MAX_TERMS
(1e6) as 1 - rho crosses the finiteness boundary, the CRRA tail boundary
and the social-welfare rounding floor. Free draws put a seed-dependent
number of rows near those cliffs, and one pass of `sweep` took 1.3 s to 8 s
depending on the seed. The phases keep every lattice point at least 6e-4
away from 1 - rho = 0 and 1 - rho = 2e-4 and about 9 % away from the
rounding floor (about 3.1e-3), and JITTER is too small to cross them, so
every seed meets the same regimes. The small-hazard slice keeps its rows
deep inside the MAX_TERMS regime on purpose.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

CASES = ("individual", "dynasty", "dynasty_theta", "lineage", "social_welfare")
PREFIX = (0.8, 1.1, 1.25, 1.18, 1.3)  # the VERIFY_PATH prefix of extrisk.simulate
JITTER = 2e-4  # relative; moves 1 - rho by at most about 1.5e-4
WORKLOADS = ("sweep", "verify", "abm")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its name, argv (without --config and --out) and its config."""

    name: str
    argv: List[str]  # argv[0], the subcommand, selects the row check
    config: Optional[Dict]  # written to <name>.json and passed as --config


def log_lattice(rng: random.Random, lo: float, hi: float, k: int, phase: float) -> List[float]:
    """k values, one per equal log-width stratum of [lo, hi], each jittered by exp(+-JITTER)."""
    a, b = math.log(lo), math.log(hi)
    return [
        math.exp(a + (b - a) * (i + phase) / k + JITTER * (2.0 * rng.random() - 1.0))
        for i in range(k)
    ]


def _sweep_configs(rng: random.Random, scale: str) -> Dict[str, Dict]:
    k = 10 if scale == "full" else 2

    def hazards_and_births() -> Dict[str, List[float]]:
        return {"m": log_lattice(rng, 1e-3, 0.3, k, 0.6), "M": log_lattice(rng, 1e-3, 0.3, k, 0.6),
                "b": log_lattice(rng, 1e-12, 0.5, k, 0.85)}

    log_const = {"path": {"prefix": list(PREFIX), "tail": "constant"},
                 "utility": {"family": "log"}}
    crra_geo = {"path": {"prefix": list(PREFIX), "tail": "geometric", "ratio": 0.9999},
                "utility": {"family": "crra", "sigma": 3.0}}
    return {
        "sweep_a_log_constant": {
            "grid": hazards_and_births(),
            **log_const,
        },
        "sweep_b_crra_geometric": {
            "grid": hazards_and_births(),
            **crra_geo,
        },
        "sweep_c_small_hazard": {
            "grid": {"m": log_lattice(rng, 1e-6, 1e-3, 2, 0.5),
                     "M": log_lattice(rng, 1e-6, 1e-3, 2, 0.5),
                     "b": log_lattice(rng, 1e-12, 1e-2, 2, 0.5)},
            **log_const,
        },
    }


def build(workload: str, seed: int, scale: str = "full") -> List[Invocation]:
    """The CLI invocations making up one pass of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (use {WORKLOADS})")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (use {SCALES})")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return [
            Invocation(name, ["sweep"], cfg)
            for name, cfg in _sweep_configs(rng, scale).items()
        ]
    if workload == "verify":
        reps = 1_000_000 if scale == "full" else 2_000
        return [Invocation("verify", ["verify", "--reps", str(reps), "--seed", str(seed)], None)]
    # abm: the loop length of each study is the largest of its sampled
    # extinction dates, a Gumbel-like maximum whose spread is about 17 % at
    # M = 0.01; several independently seeded studies per pass average it out.
    studies, runs, n0 = (3, 2_000, [1, 10, 100, 1000]) if scale == "full" else (1, 50, [1, 10])
    out = []
    for i in range(studies):
        cfg = {
            "grid": {"m": [0.02, 0.1], "M": [0.01, 0.05], "b": [0.03]},
            "path": {"prefix": list(PREFIX), "tail": "constant"},
            "utility": {"family": "log"},
            "simulation": {"replications": runs, "seed": rng.randrange(2**32),
                           "mode": "agent", "n0_values": n0},
        }
        name = f"abm_{i}"
        out.append(Invocation(name, ["simulate"], cfg))
    return out


def write_configs(invocations: Sequence[Invocation], config_dir: Path) -> None:
    """Write each config as JSON; floats keep all their digits (repr round-trips)."""
    config_dir.mkdir(parents=True, exist_ok=True)
    for inv in invocations:
        if inv.config is not None:
            (config_dir / f"{inv.name}.json").write_text(
                json.dumps(inv.config, indent=1) + "\n", encoding="utf-8")


def resolve_argv(inv: Invocation, config_dir: Path, out_dir: Path) -> List[str]:
    """The full argv: the subcommand's arguments, its config file and output directory."""
    argv = list(inv.argv)
    if inv.config is not None:
        argv += ["--config", str(config_dir / f"{inv.name}.json")]
    return argv + ["--out", str(out_dir)]
