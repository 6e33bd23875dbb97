"""Spans around the package's public functions, installed from outside.

The package is not edited: a Tracer rebinds each target name, in every
polyminor module that imported it, to a wrapper that records one span per
call (name, start, end, parent span, instance id).  Spans are kept in flat
in-memory columns and written out once, when the run ends.  Per-name
aggregates (calls, inclusive time, self time) are updated as spans close;
self time is a span's duration minus the time covered by its child spans.

Besides times, the wrappers record exact counts that repeat from run to
run: graph-search trace events by kind, S-pairs formed and the share whose
normal form is nonzero, and the size of every Buchberger output.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("toric", "toric_ideal_of_map"),
    ("toric", "saturate"),
    ("toric", "is_prime"),
    ("toric", "is_saturated_lattice"),
    ("graphrep", "search_labeling"),
    ("groebner", "buchberger"),
    ("groebner", "reduce"),
    ("groebner", "s_pair"),
    ("groebner", "ideal_membership"),
    ("groebner", "quadratic_gb_condition"),
    ("geometry", "inner_intervals"),
    ("geometry", "is_simple"),
    ("binomials", "generators"),
    ("localization", "verify_localization"),
    ("localization", "nonzerodivisor_check"),
    ("survey", "survey_row"),
    ("documents", "parse_document"),
    ("documents", "render_ascii"),
    ("cli", "main"),
    ("enumeration", "enumerate_polyominoes"),
)

NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

# search_labeling trace event kinds reported as counts.
TRACE_KINDS = ("seed", "assign", "force", "conflict", "reject_labeling", "accept")


def _package_modules() -> list:
    importlib.import_module("polyminor.cli")  # imports every module
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "polyminor" or name.startswith("polyminor.")
    ]


class Tracer:
    """Owns the wrappers, the span columns and the per-name aggregates."""

    def __init__(self) -> None:
        self.instance = -1
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_instance = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, name index, child seconds]
        self._active = [0] * len(NAMES)
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset_aggregates()

    def reset_aggregates(self) -> None:
        n = len(NAMES)
        self.calls = [0] * n
        self.incl_s = [0.0] * n
        self.self_s = [0.0] * n
        self.trace_kinds: Counter = Counter()
        self.s_pairs_nonzero = 0
        self.buchberger_out = 0
        self._pending_s_pair = None

    # ---- installation ------------------------------------------------

    def install(self, also=()) -> None:
        """Rebind every target in the package, and in the modules in `also`."""
        if self._patches:
            return
        modules = _package_modules() + list(also)
        for idx, (home, function) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"polyminor.{home}"), function)
            wrapper = self._wrap(idx, original)
            for module in modules:
                bound = [a for a, v in vars(module).items() if v is original]
                for attr in bound:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original, wrapper))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def bindings(self) -> list[str]:
        """Every rebound name, as module.attribute; for checking coverage."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches)

    # ---- recording -----------------------------------------------------

    def _wrap(self, idx: int, fn):
        tracer = self
        observe = {
            "graphrep.search_labeling": tracer._observe_search,
            "groebner.buchberger": tracer._observe_buchberger,
            "groebner.s_pair": tracer._observe_s_pair,
            "groebner.reduce": tracer._observe_reduce,
        }.get(NAMES[idx])

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent)
            tracer.span_instance.append(tracer.instance)
            tracer.span_end.append(0.0)
            frame = [span, idx, 0.0]
            stack.append(frame)
            tracer._active[idx] += 1
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._active[idx] -= 1
                tracer.span_end[span] = end
                duration = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += duration - frame[2]
                if not tracer._active[idx]:
                    tracer.incl_s[idx] += duration
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(parent, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", NAMES[idx])
        return wrapper

    def _observe_search(self, parent, verdict) -> None:
        self.trace_kinds.update(event.kind for event in verdict.trace)

    def _observe_buchberger(self, parent, basis) -> None:
        self.buchberger_out += len(basis)

    def _observe_s_pair(self, parent, s) -> None:
        # buchberger reduces a non-vanishing S-polynomial right after forming it
        self._pending_s_pair = parent if s is not None else None

    def _observe_reduce(self, parent, h) -> None:
        if self._pending_s_pair is not None and self._pending_s_pair == parent:
            self._pending_s_pair = None
            if h is not None:
                self.s_pairs_nonzero += 1

    # ---- results -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Exact counts of the aggregates window; equal on a rerun."""
        out = {f"{name}.calls": c for name, c in zip(NAMES, self.calls)}
        out.update({f"graphrep.trace.{k}": self.trace_kinds[k] for k in TRACE_KINDS})
        out["groebner.s_pair.nonzero"] = self.s_pairs_nonzero
        out["groebner.buchberger.out_elements"] = self.buchberger_out
        return out

    def times(self) -> dict[str, float]:
        out = {}
        for name, incl, own in zip(NAMES, self.incl_s, self.self_s):
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = own
        return out

    def span_count(self) -> int:
        return len(self.span_name)

    def write_spans(self, path: str, meta: dict) -> None:
        """Span columns as gzipped JSON, times relative to the first span."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        doc = {
            **meta,
            "names": list(NAMES),
            "columns": ["name", "parent", "instance", "start_s", "end_s"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "instance": self.span_instance.tolist(),
            "start_s": [round(t - origin, 7) for t in self.span_start],
            "end_s": [round(t - origin, 7) for t in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))
