"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each public function of the six layer modules,
wherever a module of the package has bound it (``from .lattice import
intersect`` makes a second binding in ``walls``), with a wrapper that counts
the call and, when it crosses from one layer into another, opens a span.
``DivisorClass.__init__`` is wrapped as a lattice call so that class
construction from the engines shows up as lattice work, and its
``__post_init__`` and ``errors.checked_int`` are counted as the two
lattice counters the engines spend most of their calls on.

A layer's self time is its span durations minus the part covered by child
spans in other layers.  Calls that stay inside the caller's layer are
counted but not timed, which keeps the overhead of the many small nested
lattice calls down.  Spans are kept in memory, up to ``SPAN_CAP``, and
written out by the caller when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("lattice", "invariants", "families", "walls", "stability", "cli")
SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.calls = Counter()  # qualified name -> calls
        self.self_ns = defaultdict(int)  # (layer, query kind) -> self time
        self.inclusive_ns = defaultdict(int)  # (layer, query kind) -> outermost span time
        self.unknown_effectivity = 0
        self.spans: list[tuple] = []
        self.query_id = 0
        self.kind = ""
        # frame: [layer, start ns, child ns, span index or -1]
        self._stack = [["bench", 0, 0, -1]]
        self._undo: list = []

    def query(self, query_id: int, kind: str, fn):
        """Run one benchmark query as the root span of its layer calls."""
        self.query_id, self.kind = query_id, kind
        self._stack = [["bench", 0, 0, -1]]
        return fn()

    def _wrap(self, layer: str, name: str, fn, post=None):
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack = tracer._stack
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result)
                return result
            parent = stack[-1]
            frame = [layer, perf_counter_ns(), 0, -1]
            if len(tracer.spans) < SPAN_CAP:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                key = (layer, tracer.kind)
                tracer.self_ns[key] += dur - frame[2]
                if not any(f[0] == layer for f in stack):
                    tracer.inclusive_ns[key] += dur
                parent[2] += dur
                if frame[3] >= 0:
                    tracer.spans[frame[3]] = (
                        tracer.query_id, name, frame[1], end, parent[3]
                    )
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of the layer modules in ``package``."""
        from importlib import import_module

        modules = {layer: import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        errors = import_module(f"{package.__name__}.errors")
        lattice = modules["lattice"]

        def count_unknown(result):
            if result.verdict is lattice.EffectivityVerdict.UNKNOWN:
                self.unknown_effectivity += 1

        replacements = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == module.__name__
                ):
                    post = count_unknown if fn is lattice.effectivity else None
                    replacements[id(fn)] = (fn, self._wrap(layer, f"{layer}.{attr}", fn, post))
        checked = errors.checked_int
        replacements[id(checked)] = (checked, self._wrap("lattice", "lattice.checked_int", checked))

        owners = [package, errors, *modules.values()]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(owner, attr, hit[1])

        cls = lattice.DivisorClass
        self._set(cls, "__init__", self._wrap("lattice", "lattice.divisor_init", cls.__init__))
        self._set(cls, "__post_init__", self._wrap("lattice", "lattice.divisor_new", cls.__post_init__))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """Spans as JSON lines: query id, name, start ns, end ns, parent span."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                qid, name, start, end, parent = span
                handle.write(json.dumps(
                    {"id": index, "query": qid, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent}
                ) + "\n")

