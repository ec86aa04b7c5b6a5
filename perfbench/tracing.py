"""Per-layer tracing from outside the package.

The tracer wraps a fixed list of public functions.  Each wrapper
replaces the original, matched by identity, in every ``conespectra``
module that holds a reference to it, since ``cli`` imports the names it
uses directly.  Every call becomes a span (name, start, end, thread,
parent, pass id) kept in memory; the parent is the innermost open span
on the same thread, and the ``parallel_map`` wrapper hands the caller's
span to the pool threads.  A function that no longer exists is recorded
as absent and its metrics read 0.  Reading a call's arguments for span
attributes (the pencil's size and bytes) never raises into the call.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

TRACED = (
    ("indicial", "singular_basis"),
    ("grassmann", "omega_minus"),
    ("normalop", "ray_minimal_growth_normal"),
    ("discretize", "assemble_mode_pencil"),
    ("discretize", "export_pencil"),
    ("spectral", "solve_pencil"),
    ("spectral", "oracle_eigenvalues"),
    ("spectral", "resolvent_norm"),
    ("spectral", "ray_minimal_growth_full"),
    ("spectral", "completeness_residual"),
    ("spectral", "parallel_map"),
)

POOL = "spectral.parallel_map"
POOL_ITEM = "spectral.parallel_map.item"
LADDER_SIZES = (100, 200, 400)

# (metric, unit, better); every per-layer metric the benchmark reports
PER_LAYER = (
    ("spectral.solve_pencil.calls", "count", "lower"),
    ("spectral.solve_pencil.busy_s", "s", "lower"),
    ("spectral.solve_pencil.input_bytes", "bytes", "lower"),
    *((f"spectral.solve_pencil.N{n}.busy_s", "s", "lower") for n in LADDER_SIZES),
    ("spectral.oracle_eigenvalues.calls", "count", "lower"),
    ("spectral.oracle_eigenvalues.busy_s", "s", "lower"),
    ("spectral.resolvent_norm.calls", "count", "lower"),
    ("spectral.resolvent_norm.busy_s", "s", "lower"),
    ("spectral.ray_minimal_growth_full.calls", "count", "lower"),
    ("spectral.ray_minimal_growth_full.self_s", "s", "lower"),
    ("spectral.completeness_residual.busy_s", "s", "lower"),
    ("spectral.parallel_map.calls", "count", "lower"),
    ("spectral.parallel_map.wall_s", "s", "lower"),
    ("spectral.parallel_map.overlap", "ratio", "higher"),
    ("discretize.assemble_mode_pencil.calls", "count", "lower"),
    ("discretize.assemble_mode_pencil.busy_s", "s", "lower"),
    ("discretize.export_pencil.busy_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("grassmann.omega_minus.calls", "count", "lower"),
    ("grassmann.omega_minus.busy_s", "s", "lower"),
    ("normalop.ray_minimal_growth_normal.calls", "count", "lower"),
    ("normalop.ray_minimal_growth_normal.busy_s", "s", "lower"),
    ("indicial.singular_basis.calls", "count", "lower"),
    ("indicial.singular_basis.busy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    pass_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(matrix) -> int:
    """Bytes held by a dense array, or by the index and value arrays of a scipy sparse one."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    parts = [getattr(matrix, p) for p in ("data", "indices", "indptr", "row", "col", "offsets")
             if hasattr(matrix, p)]
    if not parts:
        raise TypeError(f"cannot size a {type(matrix).__name__}")
    return sum(int(part.nbytes) for part in parts)


def _solve_attrs(args, kwargs) -> dict:
    pencil = args[0] if args else kwargs["pencil"]
    return {"input_bytes": _nbytes(pencil.K) + _nbytes(pencil.M), "size": int(pencil.size)}


ATTRS = {"spectral.solve_pencil": _solve_attrs}


class Tracer:
    """Collects spans for one pass while installed."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = {}
        if name in ATTRS:
            try:
                attrs = ATTRS[name](args, kwargs)
            except Exception as exc:  # reading the arguments must never fail the traced call
                attrs = {"attrs_error": f"{type(exc).__name__}: {exc}"}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, threading.get_ident(), parent, self.pass_id, attrs)
            )

    def _wrap(self, name: str, fn):
        if name == POOL:

            def pool(task, items):
                caller = self._stack()[-1]

                def carried(item):
                    stack = self._stack()
                    stack.append(caller)
                    try:
                        return self.span(POOL_ITEM, task, item)
                    finally:
                        stack.pop()

                return fn(carried, items)

            target = pool
        else:
            target = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, target, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper in all loaded conespectra modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "conespectra" or n.startswith("conespectra."))
        ]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"conespectra.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, root: Span, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced pass whose whole span is ``root``.

    ``trace.overhead_ratio`` needs untraced passes and is left to the caller.
    """
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(name):
        return sum(
            s.duration
            - _union_length((max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ()))
            for s in by_name.get(name, ())
        )

    solves = by_name.get("spectral.solve_pencil", ())
    pool_wall = busy(POOL)
    out = {
        "spectral.solve_pencil.input_bytes": max(
            (s.attrs["input_bytes"] for s in solves if "input_bytes" in s.attrs), default=0
        ),
        "spectral.ray_minimal_growth_full.self_s": self_time("spectral.ray_minimal_growth_full"),
        "spectral.parallel_map.wall_s": pool_wall,
        "spectral.parallel_map.overlap": busy(POOL_ITEM) / pool_wall if pool_wall > 0 else 0.0,
        "cli.artifact_bytes": artifact_bytes,
        "cli.self_s": root.duration
        - _union_length((s.start, s.end) for s in spans if s.id != root.id),
    }
    for n in LADDER_SIZES:
        out[f"spectral.solve_pencil.N{n}.busy_s"] = sum(
            s.duration for s in solves if "size" in s.attrs and round(s.attrs["size"] / 100.0) * 100 == n
        )
    for metric, _, _ in PER_LAYER:
        if metric in out or metric == "trace.overhead_ratio":
            continue
        name, kind = metric.rsplit(".", 1)
        out[metric] = calls(name) if kind == "calls" else busy(name)
    return out
