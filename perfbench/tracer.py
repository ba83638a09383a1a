"""Per-layer tracing of mbce from outside the package.

``Tracer.install`` wraps the public functions of each mbce module listed in
``TRACED`` and rebinds every name in every loaded ``mbce`` module that refers
to the original, so a call made through any importer (``lp_solve`` is bound
in both ``consistency`` and ``polytope``, ``max_flow_feasible`` in both
``implementation`` and ``cli``) lands in the wrapper. Each call records a
span (id, parent id, name, start, end) in memory, plus work counts read from
its arguments and result. ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct child
spans; calls nest strictly in this single-threaded process, so that is the
part of its interval its children do not cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from itertools import combinations
from math import comb

# (layer module, function) pairs; the layer is the module's short name.
TRACED = (
    ("linprog", "lp_feasible"),
    ("linprog", "lp_solve"),
    ("polytope", "enumerate_vertices"),
    ("polytope", "maximize_direction"),
    ("polytope", "is_empty"),
    ("consistency", "check_bce_consistent"),
    ("consistency", "state_condition_residual"),
    ("consistency", "action_pair_residual"),
    ("consistency", "belief_decomposition"),
    ("consistency", "separating_direction"),
    ("consistency", "oracle_feasibility"),
    ("flows", "max_flow_feasible"),
    ("implementation", "demand_check"),
    ("implementation", "core_check"),
    ("implementation", "implement_marginal"),
    ("implementation", "menu_rule_from_core"),
    ("applications", "auxiliary_single_agent"),
    ("applications", "check_public_bce"),
    ("applications", "check_ring"),
    ("applications", "construct_ring_outcome"),
    ("io", "load_game"),
    ("io", "report_string"),
    ("io", "load_report"),
    ("cli", "main"),
)

VERDICT_KINDS = (
    "consistent",
    "unsupportable-action",
    "state-condition",
    "action-pair-condition",
    "strassen-direction",
)


WORK_COUNTS = (
    "linprog.constraints",
    "polytope.enumerate_vertices.subsets",
    "polytope.enumerate_vertices.vertices",
    "flows.edges",
    "implementation.subsets_scanned",
    "io.report_bytes",
)


def subsets_scanned(n_actions: int, result) -> int:
    """Subsets a size-then-lexicographic scan over n actions visits: all
    2^n - 1 on a pass, else up to and including the returned subset."""
    if result.ok:
        return 2 ** n_actions - 1
    size = len(result.subset)
    before = sum(comb(n_actions, k) for k in range(1, size))
    target = tuple(sorted(result.subset))
    for rank, combo in enumerate(combinations(range(n_actions), size), start=1):
        if combo == target:
            return before + rank
    raise ValueError(f"subset {target} is not a subset of {n_actions} actions")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_lp(counts, args, kwargs, result) -> None:
    counts["linprog.constraints"] += len(_arg(args, kwargs, 1, "constraints"))


def _count_vertices(counts, args, kwargs, result) -> None:
    poly = _arg(args, kwargs, 0, "poly")
    counts["polytope.enumerate_vertices.subsets"] += comb(
        poly.dim + len(poly.halfspaces), poly.dim - 1
    )
    counts["polytope.enumerate_vertices.vertices"] += len(result)


def _count_verdict(counts, args, kwargs, result) -> None:
    kind = "consistent" if result.consistent else result.violation.kind
    counts[f"consistency.settled.{kind}"] += 1


def _count_edges(counts, args, kwargs, result) -> None:
    counts["flows.edges"] += len(_arg(args, kwargs, 0, "network").edges)


def _count_subsets(counts, args, kwargs, result) -> None:
    n_actions = len(_arg(args, kwargs, 0, "marginal").probs)
    counts["implementation.subsets_scanned"] += subsets_scanned(n_actions, result)


def _count_report(counts, args, kwargs, result) -> None:
    counts["io.report_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "lp_feasible": _count_lp,
    "lp_solve": _count_lp,
    "enumerate_vertices": _count_vertices,
    "check_bce_consistent": _count_verdict,
    "max_flow_feasible": _count_edges,
    "demand_check": _count_subsets,
    "core_check": _count_subsets,
    "report_string": _count_report,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(fn.__name__)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mbce" or n.startswith("mbce.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"mbce.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._rebound.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._rebound):
            setattr(module, fname, original)
        self._rebound.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of every per-layer metric, keyed as in BENCHMARK.json."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span_id]
        metrics: dict[str, tuple[float, str]] = {}
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for kind in VERDICT_KINDS:
            key = f"consistency.settled.{kind}"
            metrics[key] = (self.counts[key], "count")
        for key in WORK_COUNTS:
            metrics[key] = (self.counts[key], "count")
        subsets = self.counts["polytope.enumerate_vertices.subsets"]
        vertices = self.counts["polytope.enumerate_vertices.vertices"]
        metrics["polytope.vertex_yield"] = (vertices / subsets if subsets else 0.0, "ratio")
        return metrics

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
