"""Span tracer for the quadunit layers, applied from outside the package.

Every public function of the seven quadunit modules is replaced, at each
module attribute that holds it, by a wrapper.  Rebinding each attribute
matters because ``survey`` and ``cli`` bind names with
``from .contfrac import regulator``: patching only the defining module
would miss those call sites.  Most wrappers record a span (name, parent,
start, end) in flat arrays kept in memory; a few hot leaf helpers only
count their calls, so the trace stays small.  ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("arith", "quadfield", "contfrac", "ideals", "progressions", "survey", "cli")

# Hot leaf helpers: a span per call would dominate the trace, so only calls
# are counted.  Their time stays in the caller's self time.
COUNT_ONLY = frozenset({
    "arith.isqrt",
    "arith.is_square",
    "arith.resolve_trial_bound",
    "quadfield.sign_plus_sqrt",
    "quadfield.sign_plus_sqrt_frac",
})

# Spans whose arguments feed a work counter: name -> extractor.
CAPTURE = {
    "contfrac.regulator": lambda args, kwargs: args[0].d,
    "progressions.squarefree_flags_quadratic": lambda args, kwargs: args[3],
    "progressions.square_parts_quadratic": lambda args, kwargs: args[3],
}


def public_functions(module) -> dict[str, object]:
    """Public functions (and lru_cache wrappers) defined in ``module``."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        target = inspect.unwrap(obj)  # an lru_cache wrapper counts as its function
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[attr] = obj
    return out


class Tracer:
    """Records spans in flat arrays; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self.patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A callable that runs ``fn`` inside a span (or a counter)."""
        if name in COUNT_ONLY:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, self.clock
        capture = CAPTURE.get(name)
        sink = self.captured[name] if capture else None

        def spanned(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            if sink is not None:
                sink.append(capture(args, kwargs))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return spanned

    def install(self, package: str = "quadunit") -> None:
        """Wrap every public function at every module attribute holding it."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in public_functions(module).items():
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for module in [importlib.import_module(package)] + modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def summary(self) -> dict:
        """Per-name calls, self and total time, plus parent->child counts."""
        return summarize(self.names, self.span_name, self.span_parent,
                         self.span_start, self.span_end, self.counts)

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays.

        A request is one top-level call (``cli.main`` per command); every
        span carries the index of its request's root span.
        """
        request = array.array("i")
        for i, p in enumerate(self.span_parent):
            request.append(i if p < 0 else request[p])
        header = {"names": self.names, "n": len(self.span_name),
                  "columns": ["name:i", "parent:i", "request:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, request, self.span_start, self.span_end):
                column.tofile(fh)


def read_spans(path: str):
    """Inverse of :meth:`Tracer.write`: (names, name, parent, request, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for spec in header["columns"]:
            column = array.array(spec.split(":")[1])
            column.fromfile(fh, header["n"])
            columns.append(column)
    return (header["names"], *columns)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans nest strictly (one thread, LIFO), so the children of a span never
    overlap and their durations simply add up.
    """
    n = len(parent)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(names, name, parent, start, end, counts=None) -> dict:
    selfs = self_times(parent, start, end)
    calls: Counter = Counter(counts or {})
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    edges: Counter = Counter()
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        self_s[key] += selfs[i]
        total_s[key] += end[i] - start[i]
        p = parent[i]
        edges[(names[name[p]] if p >= 0 else "", key)] += 1
    return {"calls": calls, "self_s": self_s, "total_s": total_s, "edges": edges}
