"""Fresh-process pass runner: drives the extrisk CLI in-process, pass after pass.

Run by run.py as `python3 bench/worker.py --root R --workload W --seed N
--scale S --seconds T --trace 0|1 --out DIR`. One pass is every CLI
invocation of the workload, in order. The first pass is untimed (caches,
lazy imports); peak RSS is read right after it, so it is the peak of a
fresh process that ran one pass. Then passes repeat until `--seconds` have
elapsed: all untraced with `--trace 0`, alternating untraced and traced with
`--trace 1`. Each pass starts from empty output directories. The result,
one record per pass, goes to DIR/worker.json; spans of traced passes go to
DIR/spans.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import workloads

MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its children, at microsecond resolution."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _output_record(out_dirs: List[Path]) -> Dict:
    """Rows and bytes written, and a digest of every output file, over one pass."""
    digest = hashlib.sha256()
    rows = nbytes = 0
    for d in out_dirs:
        for f in sorted(d.iterdir()) if d.is_dir() else ():
            data = f.read_bytes()
            digest.update(f.name.encode() + b"\0" + data)
            nbytes += len(data)
            if f.suffix == ".csv":
                rows += max(data.count(b"\n") - 1, 0)
    return {"rows_written": rows, "bytes_written": nbytes, "digest": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import extrisk.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"extrisk imported from {cli.__file__}, not from {src}")

    out = Path(args.out)
    config_dir = out / "configs"
    invocations = workloads.build(args.workload, args.seed, args.scale)
    out_dirs = [out / "outputs" / inv.name for inv in invocations]
    argvs = [workloads.resolve_argv(inv, config_dir, d) for inv, d in zip(invocations, out_dirs)]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    def run_pass(pass_id: int, traced: bool) -> Dict:
        for d in out_dirs:
            shutil.rmtree(d, ignore_errors=True)
        codes = []
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            c0, t0 = _cpu_seconds(), perf_counter()
            for argv in argvs:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.append(cli.run(argv))
                except Exception:  # a crash fails the invocation, the pass goes on
                    traceback.print_exc()
                    codes.append(-1)
            wall, cpu = perf_counter() - t0, _cpu_seconds() - c0
        finally:
            if traced:
                tracer.uninstall()
        rec = {"pass": pass_id, "traced": traced, "wall_s": wall, "cpu_s": cpu,
               "exit_codes": codes, **_output_record(out_dirs)}
        if traced:
            rec["layers"] = tracer.pass_summary(pass_id)
        return rec

    passes = [run_pass(0, False)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = perf_counter()
    pass_id = 1
    while True:
        timed = passes[1:]
        traced_n = sum(p["traced"] for p in timed)
        enough = (traced_n >= MIN_TRACED_PASSES if args.trace
                  else len(timed) >= MIN_TIMED_PASSES)
        if enough and perf_counter() - start >= args.seconds:
            break
        passes.append(run_pass(pass_id, bool(args.trace) and pass_id % 2 == 0))
        pass_id += 1

    if tracer is not None:
        tracer.write(out / "spans.tsv")
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "extrisk_file": cli.__file__,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
    }
    (out / "worker.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
