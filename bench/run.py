"""extrisk benchmark: `python3 bench/run.py --workload W --seed N --seconds T --trace 0|1`.

Run from the root of an extrisk checkout; the program is imported from
./src, never from an installed copy. One run:

1. generates the workload's configs from the seed (workloads.py) and saves
   them, with the exact CLI invocations, under .bench_out/<workload>-seed<N>;
2. computes the exact reference for the sweep rows (reference.py, untimed);
3. runs worker.py in a fresh process: one untimed pass, then passes for
   --seconds (with --trace 1, alternating untraced and traced passes);
4. with --trace 0, times `import extrisk.cli` in fresh interpreters, half
   of SETUP_SAMPLES before the worker and half after it (setup_s);
5. checks the last pass's output rows, and that the work counts and output
   bytes repeat exactly across passes;
6. prints a readable summary, then one JSON line with the metrics: the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1.

`--scale tiny` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NoReturn

import reference
import workloads

BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = 10  # split around the worker, so drift in machine speed over a run averages out
WORKER_GRACE_S = 120.0  # past --seconds: the untimed pass and the final pass
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import extrisk.cli; "
    "print(repr(time.perf_counter() - t0)); print(extrisk.cli.__file__)"
)
# Work counts that must read the same in every pass of one seed.
REPEAT_COUNTS = ("series.terms", "series.unconverged", "model.draws")


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(root: Path, env: Dict[str, str], count: int) -> List[float]:
    """Seconds to import extrisk.cli in fresh interpreters; a first, untimed, warms caches."""
    src = (root / "src").resolve()
    samples = []
    for i in range(count + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"import extrisk.cli failed:\n{proc.stderr}")
        seconds, where = proc.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(src):
            fail(f"extrisk imported from {where}, not from {src}")
        if i:
            samples.append(float(seconds))
    return samples


def run_record(root: Path, args, workload: str, worker: Dict) -> Dict:
    """Where and on what the run was made: enough to rerun and compare it."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    src_digest = hashlib.sha256()
    for f in sorted((root / "src" / "extrisk").glob("*.py")):
        src_digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "platform": platform.platform(), "python": worker["python"],
        "numpy": worker["numpy"], "blas_threads": BLAS_ENV,
        "git_commit": commit, "src_sha256": src_digest.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs every workload in turn, one JSON line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--out", default=".bench_out", help="run records go to OUT/<workload>-seed<N>")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "extrisk" / "cli.py").is_file():
        fail(f"no extrisk source at {root / 'src' / 'extrisk'}; run from the repository root")
    os.environ.update(BLAS_ENV)
    env = {**os.environ, "PYTHONPATH": str((root / "src").resolve())}
    for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(root, env, args, workload)
    return 0


def run_workload(root: Path, env: Dict[str, str], args, workload: str) -> None:
    """One benchmark run of one workload: summary lines, then the JSON result line."""
    out = Path(args.out) / f"{workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    config_dir = out / "configs"
    invocations = workloads.build(workload, args.seed, args.scale)
    workloads.write_configs(invocations, config_dir)
    with open(out / "commands.txt", "w", encoding="utf-8") as fh:
        for inv in invocations:
            argv = workloads.resolve_argv(inv, config_dir, out / "outputs" / inv.name)
            fh.write("PYTHONPATH=src python3 -m extrisk.cli " + " ".join(argv) + "\n")
    refs = {inv.name: reference.reference_rows(inv.config)
            for inv in invocations if inv.argv[0] == "sweep"}

    setup = [] if args.trace else measure_setup(root, env, SETUP_SAMPLES // 2)

    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(args.seed), "--scale", args.scale,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                              timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("worker timed out")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    if not args.trace:
        setup += measure_setup(root, env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    worker = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    passes = worker["passes"]
    timed = passes[1:]

    # --- correctness: integrity (gates `correct`) and row checks (fail_frac) ----
    problems: List[str] = []
    for key in ("rows_written", "bytes_written", "digest"):
        if len({p[key] for p in passes}) != 1:
            problems.append(f"{key} differs between passes of one seed")
    traced = [p for p in timed if p["traced"]]
    for key in REPEAT_COUNTS:
        if len({p["layers"].get(key, 0.0) for p in traced}) > 1:
            problems.append(f"{key} differs between traced passes of one seed")
    checks = reference.CheckResult()
    last = passes[-1]
    for inv, code in zip(invocations, last["exit_codes"]):
        if code != 0:
            checks.add(reference.failed_invocation(inv))
            continue
        try:
            checks.add(reference.check_invocation(inv, out / "outputs" / inv.name, refs.get(inv.name)))
        except (reference.IntegrityError, KeyError, ValueError) as exc:
            problems.append(f"{inv.name}: {exc}")
    attempted_ops = sum(len(p["exit_codes"]) for p in passes)
    failed_ops = sum(code != 0 for p in passes for code in p["exit_codes"])
    fail_frac = checks.failed / max(checks.attempted, 1)

    # --- metrics ------------------------------------------------------------
    record = run_record(root, args, workload, worker)
    by_reason: Dict[str, Dict[str, int]] = {}
    for (reason, case), n in sorted(checks.failures.items()):
        by_reason.setdefault(reason, {})[case] = n
    walls = [p["wall_s"] for p in timed if not p["traced"]]
    print(f"extrisk bench: workload={workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} untraced + {len(traced)} traced (+1 untimed)")
    if args.trace:
        metrics = layer_metrics(timed, checks)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40s} {value:.6g} {unit}")
    else:
        cpus = [p["cpu_s"] for p in timed]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
            "certified_frac": (1.0 - fail_frac, "fraction"),
        }
        for name, values in (("setup_s", setup), ("wall_s", walls), ("cpu_s", cpus)):
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<14s} {med:.4f} s  (median; quartiles {q1:.4f} .. {q3:.4f}; n={len(values)})")
        print(f"  {'peak_rss_mb':<14s} {worker['peak_rss_mb']:.1f} MB  (fresh process, one pass)")
        print(f"  {'certified_frac':<14s} {1.0 - fail_frac:.6f} fraction")
    print(f"  fail_frac {fail_frac:.6f} fraction ({checks.failed} of {checks.attempted} rows)")
    for reason, cases in by_reason.items():
        print(f"    {reason}: " + ", ".join(f"{c} {n}" for c, n in cases.items()))
    for p in problems:
        print(f"  INTEGRITY: {p}")

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(passes=passes, setup_samples_s=setup, fail_frac=fail_frac,
                  rows_checked=checks.attempted, failures=by_reason,
                  integrity_problems=problems, metrics=metrics_json)
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted_ops,
                      "failed": failed_ops, "metrics": metrics_json}))


def layer_metrics(timed: List[Dict], checks) -> Dict:
    """Per-layer metrics from the traced passes: medians of times, counts of the first pass.

    Tracing overhead is the median over traced passes of the traced wall time
    minus that of the untraced pass run just before it, so that drift in the
    machine's speed over a run cancels.
    """
    traced = [p for p in timed if p["traced"]]
    overheads = [p["wall_s"] - prev["wall_s"] for prev, p in zip(timed, timed[1:])
                 if p["traced"] and not prev["traced"]]

    def med(key: str) -> float:
        return statistics.median(p["layers"].get(key, 0.0) for p in traced)

    first = traced[0]["layers"]
    terms = first.get("series.terms", 0.0)
    draws = first.get("model.draws", 0.0)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out = {}
    for mod, name in SELF_TIMES:
        out[f"{mod}.{name}.self_s"] = (med(f"{mod}.{name}.self_s"), "s")
    for key in CALL_COUNTS:
        out[f"{key}.calls"] = (first.get(f"{key}.calls", 0.0), "count")
    out.update({
        "series.terms": (terms, "count"),
        "series.unconverged": (first.get("series.unconverged", 0.0), "count"),
        "series.bound_miss": (float(sum(n for (r, _), n in checks.failures.items()
                                        if r == "bound_miss")), "count"),
        "series.wasted_terms_share": (
            first.get("series.unconverged_terms", 0.0) / terms if terms else 0.0, "fraction"),
        "model.draws": (draws, "count"),
        "simulate.selfcheck_draw_share": (
            first.get("simulate.selfcheck_draws", 0.0) / draws if draws else 0.0, "fraction"),
        "simulate.verify_fail_3se": (float(checks.verify_fail_3se), "count"),
        "cli.rows_written": (float(traced[0]["rows_written"]), "count"),
        "cli.bytes_written": (float(traced[0]["bytes_written"]), "bytes"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.coverage": (statistics.median(p["layers"]["trace.self_total_s"] / p["wall_s"]
                                             for p in traced), "fraction"),
    })
    return out


SELF_TIMES = (
    ("series", "eu_individual"), ("series", "ev_dynasty"), ("series", "ev_dynasty_theta"),
    ("series", "eg_lineage"), ("series", "ew_social"), ("series", "ew_social_n0_form"),
    ("series", "evaluate"), ("series", "finiteness_check"), ("series", "welfare_window_terms"),
    ("analysis", "discount_factor"), ("analysis", "scenario_sweep"),
    ("model", "ConsumptionPath.values"), ("model", "UtilitySpec.__call__"),
    ("model", "sample_lifetimes"), ("model", "sample_extinction_times"),
    ("simulate", "mc_eu_individual"), ("simulate", "mc_ev_dynasty"),
    ("simulate", "mc_eg_lineage"), ("simulate", "mc_ew_social"),
    ("simulate", "verify_oracle_grid"), ("simulate", "reproducibility_selfcheck"),
    ("simulate", "abm_smoothing_study"),
    ("cli", "run"), ("cli", "RunConfig.from_file"),
)
CALL_COUNTS = ("series.evaluate", "analysis.discount_factor",
               "model.ConsumptionPath.values", "model.UtilitySpec.__call__")


if __name__ == "__main__":
    sys.exit(main())
