"""Span tracing of subcart from outside the package.

The tracer wraps public functions and methods of the package modules and
records one span per call: name, start, end, parent span and operation id.
Hot leaf calls (``sup_distance``, ``Polynomial.evaluate``, ``rref`` and a
few more) keep no span of their own; each adds a count and its total time
to the span that called it.  Spans stay in memory until ``dump``.

Wrapping replaces every binding of the original function in every loaded
``subcart`` module and class, so names imported with ``from .x import f``
are caught too.  ``unwrapped_references`` lists any binding that escaped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("poly", "space", "tangent", "linalg", "stratify", "frames", "cli")

# (module, attribute, span name); a span's layer is its name's prefix
SPANS = (
    ("cli", "main", "cli.call"),
    ("cli", "_emit", "cli.emit"),
    ("space", "load_space", "space.load"),
    ("space", "sample", "space.sample"),
    ("space", "is_member", "space.is_member"),
    ("poly", "parse", "poly.parse"),
    ("tangent", "jacobian", "tangent.jacobian"),
    ("linalg", "solve_with_pivots", "linalg.solve_with_pivots"),
    ("stratify", "stratify", "stratify.stratify"),
    ("stratify", "structural_dim", "stratify.structural_dim"),
    ("stratify", "classify", "stratify.classify"),
    ("stratify", "default_adjacency_radius", "stratify.default_radius"),
    ("stratify", "verify_usc", "stratify.verify_usc"),
    ("stratify", "verify_open", "stratify.verify_open"),
    ("stratify", "verify_dense", "stratify.verify_dense"),
    ("frames", "verify_local_triviality", "frames.triviality"),
    ("frames", "frame_at", "frames.frame_at"),
    ("frames", "common_pivot_exists", "frames.common_pivot"),
    ("frames", "FrameSection.pivot_valid_at", "frames.pivot_valid"),
    ("frames", "FrameSection.evaluate", "frames.evaluate"),
)
LEAVES = (
    ("poly", "Polynomial.evaluate", "poly.evaluate"),
    ("poly", "Polynomial.partial", "poly.partial"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "submatrix_columns", "linalg.submatrix_columns"),
    ("linalg", "matrix_vector", "linalg.matrix_vector"),
    ("stratify", "sup_distance", "stratify.sup_distance"),
)

ROOT = "bench.op"  # one per operation; its self time is the benchmark's own
NAME, PARENT, OP, START, END, LEAF = range(6)


def target(module: str, attr: str) -> tuple[object, str]:
    """The module or class that defines a traced function, and its name."""
    # ``import subcart.stratify`` would bind the re-exported function
    owner = importlib.import_module(f"subcart.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _owners():
    """Every loaded subcart module, and every class such a module defines."""
    for name, module in list(sys.modules.items()):
        if name != "subcart" and not name.startswith("subcart."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Wraps the package on ``__enter__`` and restores it on ``__exit__``.

    Calls record spans only inside ``operation()``; outside it (for the
    benchmark's own checks) they pass straight through.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.op: int | None = None
        self._next_op = 0
        self._wrapped: list[tuple[object, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in SPANS:
            self._replace(module, attr, self._span_wrapper(name))
        for module, attr, name in LEAVES:
            self._replace(module, attr, self._leaf_wrapper(name))
        return self

    def __exit__(self, *exc) -> None:
        for original, wrapper in reversed(self._wrapped):
            _rebind(wrapper, original)
        self._wrapped.clear()

    def _replace(self, module: str, attr: str, make) -> None:
        owner, last = target(module, attr)
        original = vars(owner)[last]
        wrapper = functools.wraps(original)(make(original))
        self._wrapped.append((original, wrapper))
        _rebind(original, wrapper)

    def unwrapped_references(self) -> list[str]:
        """``owner.name`` of every binding that still holds an original."""
        originals = {id(original) for original, _ in self._wrapped}
        return sorted(
            f"{owner.__name__}.{key}"
            for owner in _owners()
            for key, value in vars(owner).items()
            if id(value) in originals
        )

    def _span_wrapper(self, name: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                parent = self.current
                span = [name, parent, self.op, 0.0, 0.0, None]
                self.current = len(self.spans)
                self.spans.append(span)
                span[START] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    self.current = parent

            return wrapped

        return make

    def _leaf_wrapper(self, name: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    span = self.spans[self.current]
                    if span[LEAF] is None:
                        span[LEAF] = {}
                    entry = span[LEAF].setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

            return wrapped

        return make

    @contextmanager
    def operation(self):
        """Record the wrapped calls made in the block under one new
        operation id, below a root span named ``ROOT``."""
        self.op = self._next_op
        self._next_op += 1
        root = [ROOT, -1, self.op, 0.0, 0.0, None]
        self.current = len(self.spans)
        self.spans.append(root)
        root[START] = perf_counter()
        try:
            yield
        finally:
            root[END] = perf_counter()
            self.current = -1
            self.op = None

    def dump(self, path) -> None:
        """Write the spans as JSON lines:
        ``[id, name, parent, op, start, end, {leaf: [count, seconds]}]``."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = [i, s[NAME], s[PARENT], s[OP], s[START], s[END], s[LEAF] or {}]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


def _rebind(old, new) -> None:
    for owner in _owners():
        for key, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, key, new)


def summarize(spans: list[list], first: int, stop: int) -> dict:
    """Totals over ``spans[first:stop]`` (whole operations).

    Returns ``{"calls": {name: n}, "seconds": {name: inclusive s},
    "self_s": {name: s}, "layer_self_s": {layer: s}, "total_s": s}``.
    A span's self time is its duration minus the time of its child spans
    and of the leaf calls it made; leaf time counts for the leaf's layer.
    """
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    covered = {i: 0.0 for i in range(first, stop)}
    total = 0.0
    for i in range(first, stop):
        s = spans[i]
        duration = s[END] - s[START]
        if s[PARENT] >= 0:
            covered[s[PARENT]] += duration
        else:
            total += duration
        for leaf, (count, leaf_s) in (s[LEAF] or {}).items():
            calls[leaf] = calls.get(leaf, 0) + count
            seconds[leaf] = seconds.get(leaf, 0.0) + leaf_s
            covered[i] += leaf_s
            layer_self_s[leaf.split(".")[0]] += leaf_s
    for i in range(first, stop):
        s = spans[i]
        name = s[NAME]
        own = s[END] - s[START] - covered[i]
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + s[END] - s[START]
        self_s[name] = self_s.get(name, 0.0) + own
        layer_self_s[name.split(".")[0]] += own
    return {
        "calls": calls,
        "seconds": seconds,
        "self_s": self_s,
        "layer_self_s": layer_self_s,
        "total_s": total,
    }
