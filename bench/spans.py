"""Layer tracing from outside the program: wrap public extrisk functions in spans.

Each wrapped call records a span (pass id, span id, parent span id, name,
start, end) in memory; counters (terms summed, draws made) are taken at the
same boundaries from the call's arguments and results. Wrappers replace the
function in every extrisk module namespace that holds it, so calls through
`from .series import evaluate`-style imports are seen as well. References
captured at import time in containers (for example `cli._MC_BY_KIND`, read
only by smoothed-mode `simulate`) are not rewritten and escape the spans; no
workload goes through them.

Nothing here runs unless `Tracer.install()` was called; `uninstall()`
restores every original, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

# (defining module, attribute) of every traced public function, named
# "<module>.<function>" in the metrics.
FUNCTIONS = (
    ("cli", "run"),
    ("analysis", "scenario_sweep"),
    ("analysis", "discount_factor"),
    ("series", "evaluate"),
    ("series", "eu_individual"),
    ("series", "ev_dynasty"),
    ("series", "ev_dynasty_theta"),
    ("series", "eg_lineage"),
    ("series", "ew_social"),
    ("series", "ew_social_n0_form"),
    ("series", "finiteness_check"),
    ("series", "welfare_window_terms"),
    ("simulate", "mc_eu_individual"),
    ("simulate", "mc_ev_dynasty"),
    ("simulate", "mc_eg_lineage"),
    ("simulate", "mc_ew_social"),
    ("simulate", "verify_oracle_grid"),
    ("simulate", "reproducibility_selfcheck"),
    ("simulate", "abm_smoothing_study"),
    ("model", "sample_lifetimes"),
    ("model", "sample_extinction_times"),
)
# (defining module, class, method) patched on the class itself.
METHODS = (
    ("model", "UtilitySpec", "__call__"),
    ("model", "ConsumptionPath", "values"),
    ("cli", "RunConfig", "from_file"),
)
# Functionals whose SeriesResult is one series evaluation; `evaluate` only
# dispatches to them, so counting it too would count each evaluation twice.
SERIES_FUNCTIONALS = ("eu_individual", "ev_dynasty", "ev_dynasty_theta", "eg_lineage",
                      "ew_social", "ew_social_n0_form")
SAMPLERS = ("sample_lifetimes", "sample_extinction_times")
SELFCHECK = "simulate.reproducibility_selfcheck"

Span = List[Any]  # [pass_id, span_id, parent_id, name, start_ns, end_ns]


class Tracer:
    """Spans and counters for the traced passes of one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.pass_id = -1
        self._stack: List[Span] = []
        self._selfcheck_depth = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function and method with its span-recording wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"extrisk.{name}"]
                for name in ("model", "series", "analysis", "simulate", "cli")}
        namespaces = [sys.modules["extrisk"], *mods.values()]
        for mod_name, attr in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(f"{mod_name}.{cls_name}.{attr}", raw.__func__))
            else:
                patched = self._wrap(f"{mod_name}.{cls_name}.{attr}", raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        short = name.rsplit(".", 1)[-1]
        size_of: Optional[Callable] = None
        if short in SAMPLERS:
            sig = inspect.signature(fn)
            size_of = lambda a, k: sig.bind(*a, **k).arguments["size"]  # noqa: E731
        on_series = short in SERIES_FUNCTIONALS
        is_selfcheck = name == SELFCHECK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [self.pass_id, len(self.spans), stack[-1][1] if stack else -1, name, 0, 0]
            self.spans.append(span)
            stack.append(span)
            if is_selfcheck:
                self._selfcheck_depth += 1
            span[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
                if is_selfcheck:
                    self._selfcheck_depth -= 1
            if size_of is not None:
                self._draws(int(size_of(args, kwargs)))
            if on_series:
                self._series(result)
            return result

        return wrapper

    # --- counters -----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[(self.pass_id, key)] += value

    def _draws(self, size: int) -> None:
        self._add("model.draws", size)
        if self._selfcheck_depth:
            self._add("simulate.selfcheck_draws", size)

    def _series(self, res: Any) -> None:
        terms = res.truncation_index + 1
        self._add("series.terms", terms)
        if not res.converged:
            self._add("series.unconverged", 1)
            self._add("series.unconverged_terms", terms)

    # --- aggregation --------------------------------------------------------

    def pass_summary(self, pass_id: int) -> Dict[str, float]:
        """Per-layer self time and call count, counters, and the total self time of one pass."""
        spans = [s for s in self.spans if s[0] == pass_id]
        child_ns: Dict[int, int] = defaultdict(int)
        for s in spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[5] - s[4]
        out: Dict[str, float] = defaultdict(float)
        for s in spans:
            self_s = ((s[5] - s[4]) - child_ns[s[1]]) * 1e-9
            out[f"{s[3]}.self_s"] += self_s
            out[f"{s[3]}.calls"] += 1
            out["trace.self_total_s"] += self_s
        for (pid, key), value in self.counts.items():
            if pid == pass_id:
                out[key] += value
        return dict(out)

    def write(self, path) -> None:
        """All spans as tab-separated lines: pass, id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tid\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines("\t".join(map(str, s)) + "\n" for s in self.spans)
