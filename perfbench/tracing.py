"""Layer spans recorded from outside the program.

A traced op wraps the public functions at each tokenmorph module
boundary, records one span per call (name, start, end, parent span, op
id, attributes), and removes the wrappers afterwards. Modules import
names directly (``from .ot import solve_exact_ot``), so every importing
module's own reference is patched. Spans stay in memory until the run
writes them out. tracemalloc runs only inside the spans whose peak
memory is reported (the cost matrix and the selective pass), because it
slows every Python allocation it sees.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc


class Span:
    __slots__ = ("index", "name", "op", "parent", "start", "end", "attrs")

    def __init__(self, index, name, op, parent):
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0
        self.end = 0
        self.attrs = {}

    def as_dict(self) -> dict:
        return {"i": self.index, "name": self.name, "op": self.op, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end, **self.attrs}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        # Cost matrices seen on the assignment route of the current op,
        # for the scipy reference timing after the op.
        self.assignment_costs: list = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), name, self.op, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def parent(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def call(self, name: str, fn, args, kwargs, before=None, after=None, peak=False):
        attrs = before(args, kwargs) if before is not None else None
        span = self._open(name)
        if attrs:
            span.attrs.update(attrs)
        if peak:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if peak:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._close(span)
        if after is not None:
            after(span, result, args, kwargs)
        return result

    # -- patching ---------------------------------------------------------

    def _patch(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, **hooks)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        from tokenmorph import barycenter, cli, ot, selective, trajectory

        solve = {"before": _route}
        bary = {"after": _barycenter_done}
        select = {"after": _selective_done, "peak": True}
        read = {"before": _read_bytes}
        encode = {"after": _encoded_bytes}

        self._patch(ot, "cost_matrix", "ot.cost_matrix", after=self._cost_done, peak=True)
        self._patch(ot, "solve_exact_ot", "ot.solve", **solve)
        self._patch(barycenter, "solve_exact_ot", "ot.solve", **solve)
        self._patch(trajectory, "solve_exact_ot", "ot.solve", **solve)
        self._patch(trajectory, "w2_distance", "trajectory.step_w2")
        self._patch(trajectory, "pairwise_barycenter", "barycenter", **bary)
        self._patch(selective, "selective_texture_tokens", "selective", **select)
        self._patch(cli, "read_tokens", "tokenio.read", **read)
        self._patch(cli, "tokens_to_json_bytes", "tokenio.encode", **encode)
        self._patch(cli, "morph_geometry", "trajectory.morph")
        self._patch(cli, "pairwise_barycenter", "barycenter", **bary)
        self._patch(cli, "selective_texture_tokens", "selective", **select)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _cost_done(self, span, result, args, kwargs):
        n, m = args[0].points.shape
        span.attrs["bytes_computed"] = 8 * n * args[1].n * m
        parent = self.parent()
        if parent is not None and parent.attrs.get("route") == "assignment":
            self.assignment_costs.append(result.values)


def _route(args, kwargs):
    # Same rule as solve_exact_ot's method="auto", decided before the span opens.
    a, b = args[0], args[1]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    if method == "auto":
        uniform = a.n == b.n and a.has_uniform_weights() and b.has_uniform_weights()
        method = "assignment" if uniform else "simplex"
    return {"route": method}


def _barycenter_done(span, result, args, kwargs):
    span.attrs["iterations_used"] = result.iterations_used
    span.attrs["converged"] = result.converged


def _selective_done(span, result, args, kwargs):
    span.attrs["tokens"] = result.output.n
    span.attrs["copied"] = sum(1 for d in result.decisions if not d.kept_barycenter)


def _read_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _encoded_bytes(span, result, args, kwargs):
    span.attrs["bytes"] = len(result)


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0
    cursor = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start - covered) / 1e9


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced op, from its spans."""
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_s(items):
        return sum(s.end - s.start for s in items) / 1e9

    def total_self(items):
        return sum(self_seconds(s, children.get(s.index, [])) for s in items)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = named("ot.solve")
    assignment = [s for s in solves if s.attrs["route"] == "assignment"]
    simplex = [s for s in solves if s.attrs["route"] == "simplex"]
    costs = named("ot.cost_matrix")
    bary = named("barycenter")
    steps = named("trajectory.step_w2")
    step_ids = {s.index for s in steps}
    select = named("selective")
    reads = named("tokenio.read")
    encodes = named("tokenio.encode")
    tokens = sum(s.attrs["tokens"] for s in select)
    mib = 1024.0 * 1024.0

    return {
        "ot.solves": len(solves),
        "ot.assignment.solves": len(assignment),
        "ot.assignment.self_s": total_self(assignment),
        "ot.simplex.solves": len(simplex),
        "ot.simplex.self_s": total_self(simplex),
        "ot.cost_matrix.calls": len(costs),
        "ot.cost_matrix.s": total_s(costs),
        "ot.cost_matrix.bytes_computed": sum(s.attrs["bytes_computed"] for s in costs),
        "ot.cost_matrix.peak_mb": max((s.attrs["peak_bytes"] for s in costs), default=0) / mib,
        "barycenter.calls": len(bary),
        "barycenter.sweeps": sum(s.attrs["iterations_used"] for s in bary),
        "barycenter.self_s": total_self(bary),
        "barycenter.converged_ratio": ratio(sum(s.attrs["converged"] for s in bary), len(bary)),
        "trajectory.morph.s": total_s(named("trajectory.morph")),
        "trajectory.morph.self_s": total_self(named("trajectory.morph")),
        "trajectory.step_w2.solves": sum(1 for s in solves if s.parent in step_ids),
        "trajectory.step_w2.s": total_s(steps),
        "selective.calls": len(select),
        "selective.s": total_s(select),
        "selective.tokens": tokens,
        "selective.copied_ratio": ratio(sum(s.attrs["copied"] for s in select), tokens),
        "selective.peak_mb": max((s.attrs["peak_bytes"] for s in select), default=0) / mib,
        "tokenio.read.calls": len(reads),
        "tokenio.read.s": total_s(reads),
        "tokenio.read.bytes": sum(s.attrs["bytes"] for s in reads),
        "tokenio.encode.calls": len(encodes),
        "tokenio.encode.s": total_s(encodes),
        "tokenio.encode.bytes": sum(s.attrs["bytes"] for s in encodes),
        "cli.self_s": total_self(named("cli")),
    }


def summarize(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced ops for times, mean for counts, bytes and ratios."""
    out = {}
    for key in per_op[0]:
        values = [op[key] for op in per_op]
        out[key] = float(statistics.median(values) if key.endswith(("_s", ".s"))
                         else statistics.fmean(values))
    return out


def unit_of(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if "bytes" in key:
        return "bytes"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"
