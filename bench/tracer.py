"""In-process span tracer for the supercat layers.

The tracer wraps the public functions of each layer module from the
outside: nothing under ``src/`` changes.  Every wrapped call opens a span
(id, parent span, name, start, end) on a stack; when it closes, its self
time (duration minus the time its child spans cover) is added to its
layer, and its duration is charged to the parent as child time.  The
outermost spans are ``cli.main`` and the module imports, so the layer
self times of one invocation add up to no more than its wall time.

Tiny calls are far too many to keep (``verify all`` makes millions), so
every call is aggregated into per-layer and per-function tallies, and a
span record is kept only when it lasts at least ``MIN_SPAN_S``.  A
span's parent lasts at least as long as the span, so the kept records
always form a closed tree.  ``MAX_SPANS`` caps the list; overflow is
counted, not kept.

Module set-up is layer work too: every process pays it, and it is part
of ``setup_s``.  ``trace_imports`` opens a span while each layer module
executes on import, so its self time counts for that layer (but not as
a call; ``import_s`` keeps it apart so rates can leave it out).

Enumeration functions return lazy iterators, so their work happens in
``next()``, not in the call.  Their iterators are wrapped too: each
``next()`` is a span, tagged with the family (the function name) and the
length of the path it yields.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import inspect
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

LAYERS = ("numbers", "paths", "enumeration", "bijections", "verify", "cli")

# Spans shorter than this are tallied but not recorded; at most MAX_SPANS
# are recorded.
MIN_SPAN_S = 1e-3
MAX_SPANS = 20000

# Frame layout on the stack: [span id, layer, name, start, child seconds].
_ID, _LAYER, _NAME, _START, _CHILD = range(5)


class Tracer:
    """Spans and per-layer tallies of one process, under one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = _clock()
        self.stack: list[list] = []
        self.next_id = 1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.import_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # calls that enter a layer from a different one (or from outside)
        self.crossings: Counter[str] = Counter()
        self.paths = 0
        # (family, length) -> [paths handed out, seconds inside next()]
        self.rows: defaultdict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.verify_cases = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0

    def _open(self, layer: str, name: str) -> tuple[list, list | None]:
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [self.next_id, layer, name, 0.0, 0.0]
        self.next_id += 1
        stack.append(frame)
        frame[_START] = _clock()
        return frame, parent

    def _close(self, frame: list, parent: list | None, call: bool = True) -> tuple[float, bool]:
        end = _clock()
        self.stack.pop()
        duration = end - frame[_START]
        layer = frame[_LAYER]
        self_time = duration - frame[_CHILD]
        self.self_s[layer] += self_time
        crossing = parent is None or parent[_LAYER] != layer
        if call:
            self.calls[frame[_NAME]] += 1
            if crossing:
                self.crossings[layer] += 1
        else:
            self.import_s[layer] += self_time
        if parent is not None:
            parent[_CHILD] += duration
        if duration >= MIN_SPAN_S:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    frame[_ID],
                    parent[_ID] if parent is not None else None,
                    frame[_NAME],
                    frame[_START] - self.origin,
                    end - self.origin,
                ))
            else:
                self.spans_dropped += 1
        return duration, crossing

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        tracer = self
        iterates = layer == "enumeration"

        def traced(*args, **kwargs):
            frame, parent = tracer._open(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                _, crossing = tracer._close(frame, parent)
            if layer == "verify" and crossing and hasattr(result, "cases"):
                tracer.verify_cases += result.cases
            if iterates:
                return _TracedIterator(tracer, key, name.removeprefix("enum_"), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def trace_imports(self) -> None:
        """Time each layer module's execution on import as a span of that
        layer.  Call before ``supercat`` is imported."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def install(self) -> None:
        """Replace every public function of every layer with its traced
        wrapper, in every supercat module that bound the name (so
        ``supercat.verify.enum_motzkin2`` is wrapped, not only
        ``supercat.enumeration.enum_motzkin2``)."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"supercat.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "supercat" and not mod_name.startswith("supercat."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def summary(self) -> dict:
        return {
            "run_id": self.run_id,
            "self_s": dict(self.self_s),
            "import_s": dict(self.import_s),
            "calls": dict(self.calls),
            "crossings": dict(self.crossings),
            "paths": self.paths,
            "rows": [[family, length, n, s] for (family, length), (n, s) in sorted(self.rows.items())],
            "verify_cases": self.verify_cases,
            "spans": [
                {"id": i, "parent": p, "name": name, "start": start, "end": end}
                for i, p, name, start, end in self.spans
            ],
            "spans_dropped": self.spans_dropped,
        }


class _ImportSpans:
    """Meta-path finder that wraps each layer module's ``exec_module``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        layer = name.removeprefix("supercat.")
        if layer == name or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None:
            return None
        tracer = self.tracer
        exec_module = spec.loader.exec_module

        def traced_exec(module):
            frame, parent = tracer._open(layer, f"{layer}.<import>")
            try:
                exec_module(module)
            finally:
                tracer._close(frame, parent, call=False)

        spec.loader.exec_module = traced_exec
        return spec


class _TracedIterator:
    """Times each ``next()`` of an enumeration stream as an enumeration
    span; items handed to another layer count as enumerated paths."""

    __slots__ = ("tracer", "key", "family", "inner")

    def __init__(self, tracer: Tracer, key: str, family: str, inner):
        self.tracer = tracer
        self.key = key
        self.family = family
        self.inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame, parent = tracer._open("enumeration", self.key)
        try:
            item = next(self.inner)
        finally:
            duration, crossing = tracer._close(frame, parent)
        if crossing:
            tracer.paths += 1
            # a pair stream yields tuples of paths; its length is the total
            length = sum(map(len, item)) if isinstance(item, tuple) else len(item)
            row = tracer.rows[(self.family, length)]
            row[0] += 1
            row[1] += duration
        return item
