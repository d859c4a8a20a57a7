"""Spans around the calls between nkshed's layers, recorded from outside it.

``Tracer`` replaces names that nkshed modules look up at call time (module
globals such as ``nkshed.engine.solve_inner``, and ``Model`` methods) with
wrappers that record a span per call, and puts the originals back on exit.
Spans stay in memory; ``layer_metrics`` derives per-layer counts, totals and
self times (a span's duration minus the time its child spans cover) for one
solve.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import nkshed.backend
import nkshed.engine
import nkshed.oracle

__all__ = ["Span", "Tracer", "HOOKS", "ENGINE", "ORACLE", "PER_LAYER", "CALL_TIMES",
           "SELF_TIMES", "layer_metrics"]


def _milp_attrs(res) -> dict:
    return {"nodes": int(getattr(res, "mip_node_count", 0) or 0)}


def _solution_attrs(sol) -> dict:
    return {"failed": not sol.optimal}


# (owner, attribute, span name, attributes taken from the return value)
HOOKS = (
    (nkshed.engine, "encode_feasible_set", "attackers.encode", None),
    (nkshed.engine, "valid_bounds", "bounds.valid", None),
    (nkshed.engine, "solve_inner", "inner", None),
    (nkshed.oracle, "solve_inner", "inner", None),
    (nkshed.oracle, "is_feasible_attack", "attackers.feasible", None),
    (nkshed.backend.Model, "solve_milp", "backend.solve_milp", _solution_attrs),
    (nkshed.backend.Model, "solve_lp", "backend.solve_lp", _solution_attrs),
    (nkshed.backend, "milp", "backend.highs_milp", _milp_attrs),
    (nkshed.backend, "linprog", "backend.highs_lp", None),
)

ENGINE = "engine.solve"
ORACLE = "oracle.solve"


@dataclass
class Span:
    """One call; ``parent`` indexes the caller's span within the same solve."""

    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers in ``HOOKS`` for the life of a ``with`` block.

    A hook whose name nkshed no longer has is skipped and listed in
    ``missing``, so the layer it fed reads zero instead of the run failing.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.solves: list[list[Span]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, attrs_of in self.hooks:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_of))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def solve(self, name: str):
        """Open the root span of one solve; its spans form a new list."""
        self.solves.append([])
        with self._span(name) as root:
            yield root

    @contextmanager
    def _span(self, name: str):
        spans = self.solves[-1]
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        spans.append(span)
        self._stack.append(len(spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name: str, attrs_of):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self._span(name) as span:
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    span.attrs["failed"] = True
                    raise
                if attrs_of is not None:
                    span.attrs.update(attrs_of(result))
                return result
        return traced


# Per-layer metrics, in report order, with their units.
PER_LAYER = {
    "netmodel.parse_s": "s",
    "attackers.encode_s": "s",
    "attackers.feasible_s": "s",
    "bounds.valid_s": "s",
    "bounds.self_s": "s",
    "bounds.lp_count": "count",
    "engine.master_s": "s",
    "engine.master_count": "count",
    "engine.master_first_s": "s",
    "engine.master_last_s": "s",
    "engine.self_s": "s",
    "engine.cuts": "count",
    "engine.iters_to_best": "count",
    "inner.calls": "count",
    "inner.s": "s",
    "inner.self_s": "s",
    "inner.lp_per_call": "count",
    "backend.milp_count": "count",
    "backend.highs_milp_s": "s",
    "backend.milp_assembly_s": "s",
    "backend.milp_nodes": "count",
    "backend.milp_nodes_last": "count",
    "backend.lp_count": "count",
    "backend.highs_lp_s": "s",
    "backend.lp_assembly_s": "s",
    "backend.failed": "count",
    "backend.stdout_noise_lines": "count",
    "oracle.candidates": "count",
    "oracle.evaluated": "count",
    "oracle.attacks_per_s": "1/s",
    "oracle.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}

# Two partitions of a solve's wall time: the calls the solve makes directly
# (plus its own time), and every layer's self time.
CALL_TIMES = ("attackers.encode_s", "bounds.valid_s", "engine.master_s", "inner.s",
              "attackers.feasible_s", "engine.self_s", "oracle.self_s")
SELF_TIMES = ("engine.self_s", "oracle.self_s", "attackers.encode_s", "attackers.feasible_s",
              "bounds.self_s", "inner.self_s", "backend.milp_assembly_s",
              "backend.lp_assembly_s", "backend.highs_milp_s", "backend.highs_lp_s")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Span-derived per-layer metrics of one solve; ``spans[0]`` is its root.

    Metrics that need more than the spans (parse time, outcome counts,
    stdout noise, overhead) are left for the caller to add.
    """
    root = spans[0]
    self_time = [s.duration for s in spans]
    for s in spans[1:]:
        self_time[s.parent] -= s.duration

    def pick(name: str, parent: str | None = None) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name
                and (parent is None or spans[s.parent].name == parent)]

    def total(idx: list[int]) -> float:
        return sum(spans[i].duration for i in idx)

    def own(idx: list[int]) -> float:
        return sum(self_time[i] for i in idx)

    valid, inner = pick("bounds.valid"), pick("inner")
    master = pick("backend.solve_milp", ENGINE)
    milps, lps = pick("backend.solve_milp"), pick("backend.solve_lp")
    nodes = [spans[i].attrs.get("nodes", 0) for i in pick("backend.highs_milp")]
    return {
        "attackers.encode_s": own(pick("attackers.encode")),
        "attackers.feasible_s": own(pick("attackers.feasible")),
        "bounds.valid_s": total(valid),
        "bounds.self_s": own(valid),
        "bounds.lp_count": len(pick("backend.solve_lp", "bounds.valid")),
        "engine.master_s": total(master),
        "engine.master_count": len(master),
        "engine.master_first_s": spans[master[0]].duration if master else 0.0,
        "engine.master_last_s": spans[master[-1]].duration if master else 0.0,
        "engine.self_s": self_time[0] if root.name == ENGINE else 0.0,
        "inner.calls": len(inner),
        "inner.s": total(inner),
        "inner.self_s": own(inner),
        "inner.lp_per_call": len(pick("backend.solve_lp", "inner")) / len(inner) if inner else 0.0,
        "backend.milp_count": len(milps),
        "backend.highs_milp_s": own(pick("backend.highs_milp")),
        "backend.milp_assembly_s": own(milps),
        "backend.milp_nodes": sum(nodes),
        "backend.milp_nodes_last": nodes[-1] if nodes else 0,
        "backend.lp_count": len(lps),
        "backend.highs_lp_s": own(pick("backend.highs_lp")),
        "backend.lp_assembly_s": own(lps),
        "backend.failed": sum(1 for i in milps + lps if spans[i].attrs.get("failed")),
        "oracle.candidates": len(pick("attackers.feasible")),
        "oracle.self_s": self_time[0] if root.name == ORACLE else 0.0,
    }
