"""Command-line front end: config ingestion, scenario runs, CSV/JSON output.

Subcommands: eval, simulate, sweep, profile, sensitivity, table1, verify.
Configs are JSON (nested key/value; NaN and Infinity are rejected); results
are written as CSV tables and/or JSON arrays with one row per line, whose keys
follow the CSV header order. A config's grid is held as parameter columns;
only simulate, profile and sensitivity, which run points one at a time, build
a HazardParams per point. Output is written a column at a time: the grid
subcommands (eval, sweep, table1, sensitivity, profile) take their columns
from each pass of the array core, simulate and verify transpose their rows in
blocks. Both files are written in one streamed pass that formats each distinct
value once per column and block (a float once per bit pattern; a column given
again in the next block is not formatted again) and joins each JSON row from
its cells and key prefixes built once per file, into temp files renamed into
place (mode 0666 less the umask) only when every row is written. A non-finite
float is written as its repr (inf) in CSV and as null in JSON, which has no
literal for it.
Exit codes: 0 success, 1 malformed config, 2 divergent grid point under
--strict, 3 failed simulation reproducibility self-check, 4 a verify
comparison outside 3 SE under --strict. Agent-mode simulate runs its grid
points on a process pool, one worker per usable CPU up to the number of
points; each point seeds its own streams, so the bytes written do not depend
on the worker count, which only the stdout summary line reports.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from types import NoneType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .model import ConsumptionPath, HazardParams, UtilitySpec, _is_number, _is_positive_finite
from .series import _EXPONENTS, DEFAULT_TOLERANCE, Scenario, _columns, _points
from .analysis import (_PARAMS, _SENSITIVITY_CELLS, _SWEEP_CELLS, _factor_columns,
                       _profile_columns, _sensitivity_columns, _sweep_columns)
from .simulate import (
    SimulationConfig,
    SmoothingGapRow,
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    _VERIFY_SEED_STEP,
    _check_head_counts,
    abm_smoothing_study,
    mc_compare,
    reproducibility_selfcheck,
    verify_oracle_grid,
)

OUT_DIR_ENV = "EXTRISK_OUT"

_CASE_NAMES = tuple(kind for kind in _EXPONENTS if kind != "known_extinction")
_DEFAULT_CASES = tuple(Scenario(k) for k in _CASE_NAMES)


class ConfigError(Exception):
    """Malformed run configuration; the message carries the offending key path."""


# --- config parsing ----------------------------------------------------------


def _as_float_list(value: Any, where: str) -> List[float]:
    if isinstance(value, dict):
        spec = value.get("linspace")
        if spec is None or len(value) != 1:
            raise ConfigError(f"{where}: expected a list of numbers or {{'linspace': [lo, hi, k]}}")
        if not (isinstance(spec, list) and len(spec) == 3):
            raise ConfigError(f"{where}.linspace: expected [lo, hi, k]")
        lo, hi, k = spec
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ConfigError(f"{where}.linspace: k must be a positive integer")
        for name, x in (("lo", lo), ("hi", hi)):
            _check_number(x, f"{where}.linspace: {name}")
        return [float(x) for x in np.linspace(float(lo), float(hi), k)]
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    for i, x in enumerate(value):
        _check_number(x, f"{where}[{i}]")
    return [float(x) for x in value]


def _check_number(x: Any, where: str) -> None:
    if not _is_number(x):
        raise ConfigError(f"{where}: expected a number, got {x!r}")


# grid axes in product order, which is HazardParams' field order and so the order of the
# grid's columns, with the values an omitted axis takes: its field's default (None: required)
_GRID_DEFAULTS = {f.name: None if f.default is MISSING else [f.default]
                  for f in fields(HazardParams)}


def _parse_grid(raw: Any) -> np.ndarray:
    """The grid's points as parameter columns (series._columns), in the order of the product."""
    if not isinstance(raw, dict):
        raise ConfigError("grid: expected an object with per-parameter value lists")
    for key in raw:
        if key not in _GRID_DEFAULTS:
            raise ConfigError(f"grid.{key}: unknown parameter (use {sorted(_GRID_DEFAULTS)})")
    for key, default in _GRID_DEFAULTS.items():
        if default is None and key not in raw:
            raise ConfigError(f"grid.{key}: required")
    axes = [_as_float_list(raw.get(k, d), f"grid.{k}") for k, d in _GRID_DEFAULTS.items()]
    try:  # each check is on one field, so the points are valid iff every axis value is
        for key, axis in zip(_GRID_DEFAULTS, axes):
            for x in axis:
                HazardParams(**{"m": 0.0, "M": 0.0, key: x})
    except ValueError:  # name the first invalid point, if an empty axis leaves any point
        for point in itertools.product(*axes):
            try:
                HazardParams(*point)
            except ValueError as exc:
                where = ", ".join(f"{k}={x}" for k, x in zip(_GRID_DEFAULTS, point))
                raise ConfigError(f"grid: invalid point ({where}): {exc}")
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _parse_cases(raw: Any) -> List[Scenario]:
    if raw is None:
        return list(_DEFAULT_CASES)
    if not isinstance(raw, list):
        raise ConfigError("cases: expected a list")
    cases = []
    for i, item in enumerate(raw):
        where = f"cases[{i}]"
        if isinstance(item, str):
            if item not in _CASE_NAMES:
                raise ConfigError(f"{where}: unknown case {item!r} (use {_CASE_NAMES} or {{'known_extinction': T}})")
            cases.append(Scenario(item))
        elif isinstance(item, dict) and set(item) == {"known_extinction"}:
            try:
                cases.append(Scenario("known_extinction", T=item["known_extinction"]))
            except ValueError as exc:
                raise ConfigError(f"{where}.known_extinction: {exc}")
        else:
            raise ConfigError(f"{where}: expected a case name or {{'known_extinction': T}}")
    return cases


def _section(cls: type, raw: Any, where: str, default: Any) -> Any:
    """A config section built by its dataclass, whose constructor checks the values."""
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = [key for key in raw if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}")


_REPLICATIONS = 100_000  # a config's default; SimulationConfig's is 1,000,000


@dataclass
class RunConfig:
    cases: List[Scenario]
    grid: np.ndarray  # parameter columns (series._columns), a row per point
    path: ConsumptionPath
    utility: UtilitySpec
    tolerance: float
    simulation: SimulationConfig
    n0_values: List[int]
    horizon: int

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        known = {f.name for f in fields(cls)} - {"n0_values"}  # the simulation object holds it
        unknown = [key for key in raw if key not in known]
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown top-level key")
        if "grid" not in raw:
            raise ConfigError("grid: required")
        horizon = raw.get("horizon", 2100)
        if type(horizon) is not int or horizon < 1:
            raise ConfigError("horizon: expected a positive integer")
        sim = raw.get("simulation")
        n0_values = [1, 10, 100, 1000]
        if isinstance(sim, dict):  # the CLI's replication count, with or without the object
            sim = {"replications": _REPLICATIONS, **sim}
            if "n0_values" in sim:  # agent mode's, not SimulationConfig's
                n0_values = sim.pop("n0_values")
                try:
                    _check_head_counts(n0_values)
                except ValueError as exc:
                    raise ConfigError(f"simulation.n0_values: {exc}")
        return cls(
            cases=_parse_cases(raw.get("cases")),
            grid=_parse_grid(raw["grid"]),
            path=_section(ConsumptionPath, raw.get("path"), "path", ConsumptionPath.constant(1.0)),
            utility=_section(UtilitySpec, raw.get("utility"), "utility", UtilitySpec.log()),
            tolerance=_positive_finite(raw.get("tolerance", DEFAULT_TOLERANCE), "tolerance"),
            simulation=_section(SimulationConfig, sim, "simulation",
                                SimulationConfig(replications=_REPLICATIONS)),
            n0_values=n0_values,
            horizon=horizon,
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}")
        return cls.from_dict(json.loads(text, parse_constant=_reject_constant,
                                        parse_int=_parse_int))


def _reject_constant(name: str) -> Any:
    raise ConfigError(f"{name} is not a number extrisk accepts (non-finite)")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on the digits int() reads, 4300 by default
        raise ConfigError(f"an integer of {len(text.lstrip('-'))} digits is not a number "
                          f"extrisk accepts")


def _positive_finite(x: Any, where: str) -> float:
    """x as a float when it is a finite number > 0."""
    if not _is_positive_finite(x):
        raise ConfigError(f"{where} must be finite and > 0, got {x!r}")
    return float(x)


def _default_config() -> RunConfig:
    """The built-in grid, path and utility under a config file's other defaults."""
    return replace(RunConfig.from_dict({"grid": {"m": [], "M": []}}),
                   grid=_columns(VERIFY_GRID), path=VERIFY_PATH, utility=VERIFY_UTILITY)


def _load_config(args: argparse.Namespace, required: bool) -> RunConfig:
    if args.config is None:
        if required:
            raise ConfigError("--config PATH is required for this subcommand")
        cfg = _default_config()
    else:
        cfg = RunConfig.from_file(args.config)
    if args.tolerance is not None:
        cfg.tolerance = _positive_finite(args.tolerance, "--tolerance")
    sim_kwargs = {k: v for k, v in (("replications", args.reps), ("seed", args.seed))
                  if v is not None}
    if sim_kwargs:
        try:
            cfg.simulation = replace(cfg.simulation, **sim_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return cfg


# --- output ------------------------------------------------------------------


# the characters that make csv.writer quote a field, and "\r": a lone "\r" left unquoted, as
# Python 3.11's csv.writer leaves it, splits the record when csv.reader reads it back
_CSV_QUOTED = (",", '"', "\n", "\r")


# rows per block of _write_rows and per join of _stream_columns: bounds the row texts held at
# once, whatever the size of a pass
_WRITE_BLOCK = 2048


def _write_rows(
    out_dir: Path, name: str, columns: Sequence[str], rows: Iterable[Dict[str, Any]],
    fmt: str,
) -> None:
    """_write_columns of dict rows, transposed a block of rows at a time; a missing key is None."""
    rows = iter(rows)
    chunks = iter(lambda: list(itertools.islice(rows, _WRITE_BLOCK)), [])  # until rows run out
    blocks = ({col: list(map(dict.get, chunk, itertools.repeat(col))) for col in columns}
              for chunk in chunks)
    _write_columns(out_dir, name, columns, blocks, fmt)


def _write_columns(
    out_dir: Path, name: str, columns: Sequence[str], blocks: Iterable[Dict[str, Sequence[Any]]],
    fmt: str,
) -> None:
    """Write blocks of columns as <name>.csv and/or <name>.json, printing a line per file written.

    A block maps each of `columns` (other keys are not written) to its
    cells, lists of one length. One pass over the blocks streams both files
    into temp files beside their targets; each distinct value of a column is
    formatted once per block, and its text serves both files. Rows are
    joined and written _WRITE_BLOCK at a time. JSON keys follow `columns`.
    Only when every block is written are the files renamed into place, so a
    failure leaves the targets untouched and no temp file or new directory behind.
    """
    targets = [out_dir / f"{name}.{ext}" for ext in ("csv", "json") if fmt in (ext, "both")]
    made = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where a directory belongs: FileExistsError, NotADirectoryError
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}")
    tmps: List[str] = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for target in targets:  # "x": a new file, with the mode open() gives under the umask
                tmp = out_dir / f"{target.name}.{os.urandom(6).hex()}.tmp"
                files.append(stack.enter_context(open(tmp, "x", encoding="utf-8", newline="")))
                tmps.append(tmp)
            csv_fh = files[0] if fmt != "json" else None
            json_fh = files[-1] if fmt != "csv" else None
            _stream_columns(csv_fh, json_fh, columns, blocks)
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        for d in made:  # innermost first; a directory something else wrote into stays
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for target in targets:
        print(f"wrote {target}")


def _texts(v: Any) -> Tuple[str, str]:
    """A cell's CSV and JSON texts; a non-finite float is null in JSON, None empty and null."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return text, text if math.isfinite(v) else "null"
    if isinstance(v, str):
        quoted = any(c in v for c in _CSV_QUOTED)
        return '"' + v.replace('"', '""') + '"' if quoted else v, json.dumps(v)
    if v is None:
        return "", "null"
    if isinstance(v, bool):
        return ("True", "true") if v else ("False", "false")
    if isinstance(v, int):
        text = int.__repr__(v)
        return text, text
    raise TypeError(f"cannot write a cell of type {type(v).__name__}")


def _column_texts(cells: Sequence[Any]) -> Tuple[Sequence[str], Sequence[str]]:
    """A column's CSV and JSON texts, each distinct value formatted once.

    A float column, a float64 array or a list of floats (np.float64 too)
    and None, is keyed by the bit patterns of its values, so that 0.0 and
    -0.0 stay apart; its JSON texts are its CSV texts unless a cell is None
    or not finite. A column of one other type (with None) is keyed by value,
    and a column that mixes types is formatted cell by cell, so that 1, 1.0
    and True stay apart.
    """
    if isinstance(cells, np.ndarray) and cells.dtype != np.float64:
        cells = cells.tolist()
    none: List[int] = []
    if not isinstance(cells, np.ndarray):
        types = set(map(type, cells))
        types.discard(NoneType)
        if not (types and all(issubclass(t, float) for t in types)):
            if len(types) > 1:
                return tuple(zip(*map(_texts, cells)))
            distinct = dict.fromkeys(cells)
            csv_list, json_list = zip(*map(_texts, distinct))
            csv_texts = list(map(dict(zip(distinct, csv_list)).__getitem__, cells))
            if csv_list == json_list:
                return csv_texts, csv_texts
            return csv_texts, list(map(dict(zip(distinct, json_list)).__getitem__, cells))
        values = np.array(cells, dtype=float)  # None reads nan
        none = [i for i in np.flatnonzero(np.isnan(values)).tolist() if cells[i] is None]
        cells = values
    keys, index = np.unique(cells.view(np.int64), return_inverse=True)
    index[none] = len(keys)  # None's texts follow the distinct values'
    distinct = keys.view(np.float64)
    finite = np.isfinite(distinct)
    texts = np.array([*map(float.__repr__, distinct.tolist()), ""], dtype=object)
    csv_texts = texts[index].tolist()
    if none or not finite.all():
        return csv_texts, np.where(np.append(finite, False), texts, "null")[index].tolist()
    return csv_texts, csv_texts


def _stream_columns(csv_fh: Optional[TextIO], json_fh: Optional[TextIO], columns: Sequence[str],
                    blocks: Iterable[Dict[str, Sequence[Any]]]) -> None:
    """CSV with a header row; a JSON array, one row per line.

    Each block's rows are joined from its columns' texts and written
    _WRITE_BLOCK rows at a time, so the text held at once does not grow with
    the block. A cell list given for two columns is formatted once, and one
    given again in the next block is not formatted again (it must not have
    changed). A JSON row is one join of its cells between key prefixes built
    once per call: '{"m": ', ...'}'.
    """
    prefixes = [("{" if i == 0 else ", ") + json.dumps(col) + ": " for i, col in enumerate(columns)]
    key_texts, close = list(map(itertools.repeat, prefixes)), itertools.repeat("}")
    if csv_fh:
        csv_fh.write(",".join(_texts(col)[0] for col in columns) + "\n")
    sep, texts = "[\n", {}
    for block in blocks:
        block = [block[col] for col in columns]
        if not (block and len(block[0])):
            continue
        distinct = {id(cells): cells for cells in block}
        # an entry holds its cells, so no other list takes their id while it is kept
        texts = {key: texts.get(key) or (cells, _column_texts(cells))
                 for key, cells in distinct.items()}
        csv_cols, json_cols = zip(*[texts[id(cells)][1] for cells in block])
        csv_rows = map(",".join, zip(*csv_cols))
        parts = [part for pair in zip(key_texts, json_cols) for part in pair]
        json_rows = map("".join, zip(*parts, close))
        for _ in range(0, len(block[0]), _WRITE_BLOCK):
            if csv_fh:
                csv_fh.write("\n".join(itertools.islice(csv_rows, _WRITE_BLOCK)) + "\n")
            if json_fh:
                json_fh.write(sep + ",\n".join(itertools.islice(json_rows, _WRITE_BLOCK)))
                sep = ",\n"
    if json_fh:
        json_fh.write("[]\n" if sep == "[\n" else "\n]\n")


# --- subcommands ---------------------------------------------------------------

def _exit_code(args: argparse.Namespace, statuses: List[str]) -> int:
    return 2 if (args.strict and "divergent" in statuses) else 0


_EVAL_COLUMNS = [
    "m", "M", "b", "theta", "alpha", "N0", "n", "case",
    "value", "tail_bound", "truncation_index", "converged", "status", "finiteness_margin",
]
_SWEEP_COLUMNS = list(_SWEEP_CELLS)


def _cmd_sweep(args: argparse.Namespace, out_dir: Path, columns: Sequence[str]) -> int:
    """sweep and eval: scenario_sweep's columns, written a pass of the array core at a time."""
    cfg = _load_config(args, required=True)
    blocks = list(_sweep_columns(cfg.grid, cfg.cases, cfg.path, cfg.utility, cfg.tolerance))
    statuses = collections.Counter(itertools.chain.from_iterable(b["status"] for b in blocks))
    by_status = collections.Counter()
    for status, count in statuses.items():
        by_status[status.split(":")[0]] += count
    print(f"{args.command}: {sum(statuses.values())} rows, {by_status['ok']} ok, "
          f"{by_status['divergent']} divergent, {by_status['rejected']} rejected; "
          f"{sum(b['converged'].count(False) for b in blocks)} not converged")
    _write_columns(out_dir, args.command, columns, blocks, args.format)
    return _exit_code(args, list(statuses))


_TABLE1_COLUMNS = ["m", "M", "b", "theta", "alpha", "N0", "n", "case", "factor", "factor_n0"]


def _cmd_table1(args: argparse.Namespace, out_dir: Path) -> int:
    cfg = _load_config(args, required=False)
    blocks = _factor_columns(cfg.grid, _DEFAULT_CASES, cfg.path.prefix_len)
    _write_columns(out_dir, "table1", _TABLE1_COLUMNS, (cells for _, cells in blocks), args.format)
    return 0


_PROFILE_COLUMNS = ["m", "M", "b", "theta", "alpha", "case", "parameter", "t", "value"]


def _cmd_profile(args: argparse.Namespace, out_dir: Path) -> int:
    cfg = _load_config(args, required=False)
    _write_columns(out_dir, "profile", _PROFILE_COLUMNS, _profile_columns(cfg.grid, cfg.horizon),
                   args.format)
    return 0


_SENSITIVITY_COLUMNS = _SENSITIVITY_CELLS


def _cmd_sensitivity(args: argparse.Namespace, out_dir: Path) -> int:
    cfg = _load_config(args, required=False)
    step = _positive_finite(args.step, "--step")
    blocks = _sensitivity_columns(cfg.grid, cfg.cases, step, step, cfg.path.prefix_len)
    _write_columns(out_dir, "sensitivity", _SENSITIVITY_COLUMNS, blocks, args.format)
    return 0


_SIMULATE_COLUMNS = [
    "m", "M", "b", "theta", "alpha", "N0", "n", "case",
    "analytic", "mc_mean", "mc_se", "abs_error", "within_3se",
    "replications", "truncated_mass", "status",
]
_ABM_COLUMNS = _PARAMS[:5] + [f.name for f in fields(SmoothingGapRow)]  # as _abm_rows builds


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _abm_rows(grid: Sequence[HazardParams], studies: Iterator[List[Any]]) -> List[Dict[str, Any]]:
    """Rows of the per-point studies in grid order; the first failing point is a ConfigError."""
    rows = []
    for params in grid:
        try:
            study = next(studies)
        except ValueError as exc:
            raise ConfigError(f"agent-mode simulate at m={params.m}, M={params.M}, "
                              f"b={params.b}: {exc}")
        rows.extend({**params.cells(population=False), **asdict(r)} for r in study)
    return rows


def _pooled(study: Callable[[HazardParams], List[Any]], points: Sequence[HazardParams],
            workers: int) -> Iterator[List[Any]]:
    """map(study, points) on a pool of worker processes, each taking the next point when free.

    Once a study fails, no further one starts, and the results raise the
    first failure in grid order: every point before it has run.
    """
    # imported here: about 12 ms that every other run would pay at start-up
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # fork, not 3.14's forkserver default, under which each worker re-imports numpy
    ctx = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    futures, running = [], set()
    with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
        for params in points:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() for future in done):
                    break
            futures.append(pool.submit(study, params))
            running.add(futures[-1])
    return (future.result() for future in futures)


def _cmd_simulate(args: argparse.Namespace, out_dir: Path) -> int:
    cfg = _load_config(args, required=True)
    if not reproducibility_selfcheck():
        print("simulation reproducibility self-check FAILED", file=sys.stderr)
        return 3
    sim, points = cfg.simulation, _points(cfg.grid)
    if sim.mode == "agent":
        study = functools.partial(abm_smoothing_study, path=cfg.path, u=cfg.utility,
                                  n0_values=cfg.n0_values, config=sim)
        workers = max(1, min(len(points), _usable_cpus()))
        rows = _abm_rows(points, _pooled(study, points, workers) if workers > 1
                         else map(study, points))
        hit = max((row["cap_hit_fraction"] for row in rows), default=0.0)
        print(f"simulate: {len(rows)} rows, grid points {len(points)}, workers {workers}; "
              f"max cap_hit_fraction {hit:.3g}")
        _write_rows(out_dir, "simulate", _ABM_COLUMNS, rows, args.format)
        return 0
    rows = mc_compare(points, cfg.cases, cfg.path, cfg.utility, cfg.tolerance,
                      [sim] * len(points))
    by_status = collections.Counter(row["status"].split(":")[0] for row in rows)
    masses = [row["truncated_mass"] for row in rows if row["truncated_mass"] is not None]
    counts = ", ".join(f"{n} {status}" for status, n in sorted(by_status.items()))
    print(f"simulate: {len(rows)} rows, {counts}; "
          f"{sum(row['within_3se'] is False for row in rows)} outside 3 SE, "
          f"max truncated_mass {max(masses, default=0.0):.3g}")
    _write_rows(out_dir, "simulate", _SIMULATE_COLUMNS, rows, args.format)
    return _exit_code(args, [row["status"] for row in rows])


def _cmd_verify(args: argparse.Namespace, out_dir: Path) -> int:
    reps = args.reps if args.reps is not None else 100_000_000
    seed = args.seed if args.seed is not None else 20240613
    try:
        SimulationConfig(replications=reps)  # its constructor checks the count
    except ValueError as exc:
        raise ConfigError(str(exc))
    spread = _VERIFY_SEED_STEP * (len(VERIFY_GRID) - 1)  # the last point runs on seed + spread
    if not 0 <= seed < 2**64 - spread:
        raise ConfigError(f"--seed must lie in [0, {2**64 - 1 - spread}]: grid point i runs "
                          f"on seed + {_VERIFY_SEED_STEP} i, an unsigned 64-bit seed")
    if not reproducibility_selfcheck():
        print("simulation reproducibility self-check FAILED", file=sys.stderr)
        return 3
    rows = verify_oracle_grid(replications=reps, seed=seed)
    failures = 0
    for r in rows:
        failures += not r["ok"]
        se = r["mc_se"] if r["mc_se"] > 0 else float("nan")
        print(f"{'PASS' if r['ok'] else 'FAIL'} {r['functional']:<17s} point={r['point']:<2d} "
              f"analytic={r['analytic']:.6f} mc={r['mc_mean']:.6f} "
              f"|err|/se={r['abs_error'] / se:.2f}")
    print(f"verify: {len(rows)} comparisons, {failures} outside 3 SE, max truncated_mass "
          f"{max((r['truncated_mass'] for r in rows), default=0.0):.3g} (reps={reps}, seed={seed})")
    _write_rows(out_dir, "verify", list(rows[0]) if rows else [], rows, args.format)
    return 4 if (args.strict and failures) else 0


# --- entry point ---------------------------------------------------------------


# every settable flag; a subcommand accepts only the flags it reads
_FLAGS = {
    "config": dict(metavar="PATH", help="JSON run configuration"),
    "out": dict(metavar="DIR", help=f"output directory (default ${OUT_DIR_ENV} or '.')"),
    "seed": dict(type=int, help="override the simulation seed"),
    "reps": dict(type=int, help="override the replication count"),
    "tolerance": dict(type=float, help="series tolerance override"),
    "strict": dict(action="store_true", help="exit 2 on any divergent grid point "
                                             "(verify: exit 4 on any comparison outside 3 SE)"),
    "format": dict(choices=("csv", "json", "both"), default="both", help="output file format(s)"),
    "step": dict(type=float, default=1e-6, help="finite-difference step"),
}
# subcommand: (handler, help, the flags it reads)
_COMMANDS = {
    "eval": (functools.partial(_cmd_sweep, columns=_EVAL_COLUMNS),
             "evaluate the analytic functionals over a config grid",
             "config out tolerance strict format"),
    "simulate": (_cmd_simulate, "Monte Carlo / agent-based runs over a config grid",
                 "config out seed reps tolerance strict format"),
    "sweep": (functools.partial(_cmd_sweep, columns=_SWEEP_COLUMNS),
              "factor + series + finiteness table over a config grid",
              "config out tolerance strict format"),
    "profile": (_cmd_profile, "time-varying social-welfare weight-ratio profile",
                "config out format"),
    "sensitivity": (_cmd_sensitivity, "factor derivatives wrt perceived hazards, both regimes",
                    "config out format step"),
    "table1": (_cmd_table1, "closed-form discount factors and their n=0 restriction",
               "config out format"),
    "verify": (_cmd_verify, "analytic vs Monte Carlo agreement over the built-in grid",
               "out seed reps strict format"),
}


@functools.cache  # parse_args fills a new namespace per call, so one tree serves every run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extrisk",
        description="Expected-utility discounting under mortality and extinction hazards",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        # shared code tests an unread flag as None
        p.set_defaults(handler=handler, **dict.fromkeys(_FLAGS.keys() - set(flags.split())))
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    try:
        return args.handler(args, out_dir)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an array or list past the address space, refused before allocation
        print(f"config error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
