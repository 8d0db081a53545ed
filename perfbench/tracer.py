"""Span tracing from outside the package, and the per-layer metrics.

The tracer wraps public sembit functions at every name a sembit module
binds them under (the package uses ``from .x import y``, so patching only
the defining module would miss most call sites).  Each wrapped call
records one span: name, start, end, parent and a note (candidate count,
infeasibility cause or bytes written).  Spans stay in memory until the
run ends.  A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import builtins
import json
import os
import sys
import time

import numpy as np

# (module defining the function, attribute, span name)
TRACED = (
    ("sembit.channel", "sample_realization", "channel.sample_realization"),
    ("sembit.similarity", "power_for_similarity_grid", "similarity.power_for_similarity_grid"),
    ("sembit.similarity", "fit_logistic", "similarity.fit_logistic"),
    ("sembit.search", "refine_search", "search.refine_search"),
    ("sembit.power", "solve_oma_min_power", "power.solve_oma_min_power"),
    ("sembit.power", "solve_noma_min_power", "power.solve_noma_min_power"),
    ("sembit.power", "solve_semi_min_power", "power.solve_semi_min_power"),
    ("sembit.boundary", "solve_oma_point", "boundary.solve_oma_point"),
    ("sembit.boundary", "solve_semi_point", "boundary.solve_semi_point"),
    ("sembit.boundary", "noma_boundary", "boundary.noma_boundary"),
    ("sembit.boundary", "check_containment", "boundary.check_containment"),
    ("sembit.rates", "rates_for", "rates.rates_for"),
    ("sembit.montecarlo", "run_sweep", "montecarlo.run_sweep"),
    ("sembit.cli", "main", "cli.main"),
)
SOLVES = ("power.solve_oma_min_power", "power.solve_noma_min_power", "power.solve_semi_min_power")
INFEASIBLE_CAUSES = ("bandwidth-bound", "rate-asymptote", "similarity-asymptote")

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "channel.sample_realization.calls": "count",
    "channel.sample_realization.us_per_call": "us",
    "similarity.power_for_similarity_grid.calls": "count",
    "similarity.power_for_similarity_grid.candidates": "count",
    "similarity.power_for_similarity_grid.ns_per_candidate": "ns",
    "similarity.fit_logistic.calls": "count",
    "similarity.fit_logistic.ms_per_call": "ms",
    "similarity.import_ms": "ms",
    "search.refine_search.calls": "count",
    "search.objective_calls": "count",
    "search.candidates": "count",
    "search.self_ms": "ms",
    "search.objective_ms": "ms",
    **{f"{s}.{suffix}": unit for s in SOLVES for suffix, unit in (("calls", "count"), ("ms_self", "ms"))},
    "power.oma_nested_calls": "count",
    **{f"power.infeasible.{c}": "count" for c in INFEASIBLE_CAUSES},
    "boundary.solve_oma_point.calls": "count",
    "boundary.solve_oma_point.ms_self": "ms",
    "boundary.solve_semi_point.calls": "count",
    "boundary.solve_semi_point.ms_self": "ms",
    "boundary.noma_boundary.ms": "ms",
    "boundary.check_containment.ms": "ms",
    "rates.rates_for.calls": "count",
    "rates.rates_for.us_per_call": "us",
    "montecarlo.run_sweep.self_ms": "ms",
    "cli.io_ms": "ms",
    "cli.bytes_written": "B",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def is_count(name: str) -> bool:
    """Count-type metrics, which must repeat exactly for identical work."""
    return (
        name.endswith((".calls", ".candidates"))
        or name in ("search.objective_calls", "trace.spans")
        or name.startswith("power.infeasible.")
    )


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent_index, note]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note=None):
        """Span-recording wrapper; ``note(args, result)`` annotates a return."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = getattr(exc, "cause", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        return traced

    def _traced_refine(self, fn):
        """refine_search wrapper that also traces the objective it is given."""
        search = self._wrap("search.refine_search", fn)
        wrap = self._wrap

        def refine_search(objective, *args, **kwargs):
            counted = wrap("search.objective", objective, note=lambda a, _: int(np.size(a[0])))
            return search(counted, *args, **kwargs)

        return refine_search

    def _traced_open(self):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def open_(file, mode="r", *args, **kwargs):
            rec = ["io.open", clock(), 0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            return _TimedFile(builtins.open(file, mode, *args, **kwargs), rec, file, mode)

        return open_

    def install(self) -> None:
        """Patch every sembit binding of each traced function, and ``open`` in every sembit module.

        A function the package no longer has is skipped; its metrics read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sembit" or n.startswith("sembit.")]
        for mod_name, attr, span in TRACED:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            if span == "search.refine_search":
                replacement = self._traced_refine(original)
            elif span == "similarity.power_for_similarity_grid":
                replacement = self._wrap(span, original, note=lambda _, out: int(np.size(out)))
            else:
                replacement = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, replacement)
        opener = self._traced_open()
        for mod in modules:
            self._saved.append((mod, "open", vars(mod).get("open")))
            mod.open = opener

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._saved):
            if value is None:
                delattr(mod, key)
            else:
                setattr(mod, key, value)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "note"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded (overhead and import times excluded)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        notes: dict[str, int] = {}
        nested_oma = 0
        infeasible = dict.fromkeys(INFEASIBLE_CAUSES, 0)
        for i, (name, start, end, parent, note) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total_ns[name] = total_ns.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
            if isinstance(note, int):
                notes[name] = notes.get(name, 0) + note
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "power.solve_oma_min_power" and parent_name == "power.solve_semi_min_power":
                nested_oma += 1
            if name in SOLVES and note in infeasible and parent_name not in SOLVES:
                infeasible[note] += 1

        def n(key):
            return calls.get(key, 0)

        def ms(table, key):
            return table.get(key, 0) / 1e6

        def per_call(key, scale):
            return total_ns.get(key, 0) / scale / n(key) if n(key) else 0.0

        grid = "similarity.power_for_similarity_grid"
        out = {
            "channel.sample_realization.calls": n("channel.sample_realization"),
            "channel.sample_realization.us_per_call": per_call("channel.sample_realization", 1e3),
            f"{grid}.calls": n(grid),
            f"{grid}.candidates": notes.get(grid, 0),
            f"{grid}.ns_per_candidate": total_ns.get(grid, 0) / notes[grid] if notes.get(grid) else 0.0,
            "similarity.fit_logistic.calls": n("similarity.fit_logistic"),
            "similarity.fit_logistic.ms_per_call": per_call("similarity.fit_logistic", 1e6),
            "search.refine_search.calls": n("search.refine_search"),
            "search.objective_calls": n("search.objective"),
            "search.candidates": notes.get("search.objective", 0),
            "search.self_ms": ms(self_ns, "search.refine_search"),
            "search.objective_ms": ms(total_ns, "search.objective"),
            "power.oma_nested_calls": nested_oma,
            "boundary.noma_boundary.ms": ms(total_ns, "boundary.noma_boundary"),
            "boundary.check_containment.ms": ms(total_ns, "boundary.check_containment"),
            "rates.rates_for.calls": n("rates.rates_for"),
            "rates.rates_for.us_per_call": per_call("rates.rates_for", 1e3),
            "montecarlo.run_sweep.self_ms": ms(self_ns, "montecarlo.run_sweep"),
            "cli.io_ms": ms(total_ns, "io.open"),
            "cli.bytes_written": notes.get("io.open", 0),
            "cli.self_ms": ms(self_ns, "cli.main"),
            "trace.spans": len(spans),
        }
        for key in (*SOLVES, "boundary.solve_oma_point", "boundary.solve_semi_point"):
            out[f"{key}.calls"] = n(key)
            out[f"{key}.ms_self"] = ms(self_ns, key)
        for cause, count in infeasible.items():
            out[f"power.infeasible.{cause}"] = count
        return out


class _TimedFile:
    """File proxy whose span runs from open to close; notes bytes written."""

    def __init__(self, fh, rec, path, mode):
        self._fh, self._rec, self._path, self._mode = fh, rec, path, mode

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __iter__(self):
        return iter(self._fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._rec[2] = time.perf_counter_ns()
            if any(c in self._mode for c in "wax"):
                self._rec[4] = os.path.getsize(self._path)
