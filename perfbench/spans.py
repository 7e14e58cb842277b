"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every function that one affsim
module binds from another (for example the names ``affsim.cli`` imports from
``protocols``, ``core`` and ``scenario``), plus ``cli.main`` and the engine
functions the sweep and the checks look up in ``affsim.engine``. Each call
records a span: name, start, end and parent. No file of the package changes,
and ``uninstall`` puts every original binding back.

Class constructors are not wrapped, so building an ``AffectanceMatrix`` or a
``Schedule`` counts in the span of the function that does it.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "engine", "protocols", "core", "scenario")

# Called once per node or receiver per slot: a span for each call would cost
# more than the work it times, so their time counts in the caller's span.
HOT = frozenset({"decay_step", "sinr_step", "is_selected"})

# Functions a module calls on itself (or the benchmark calls directly) that
# still mark a layer boundary worth timing.
OWN = {
    "cli": ("main",),
    "engine": ("run_schedule", "run_adaptive", "replay_first_success"),
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    tag: object
    info: dict | None = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed. ``probes`` maps a span name to a
    function of (args, kwargs, result) whose dict is kept on the span."""

    def __init__(self, probes=None):
        self.spans = []
        self.tag = None
        self.probes = probes or {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter(), 0.0, self.tag)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def install(self):
        for layer in LAYERS:
            module = sys.modules[f"affsim.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr in HOT:
                    continue
                origin = obj.__module__
                if not origin.startswith("affsim."):
                    continue
                if origin == module.__name__ and attr not in OWN.get(layer, ()):
                    continue
                self._patched.append((module, attr, obj))
                name = f"{origin.split('.', 1)[1]}.{attr}"
                setattr(module, attr, self._wrap(name, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "tag": s.tag,
                    "info": s.info,
                }) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover (calls
    are nested on one thread, so children never overlap)."""
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def roots(spans):
    """Span id -> id of the root span of its call tree. Parents are recorded
    before their children, so one forward pass suffices."""
    root = {}
    for s in spans:
        root[s.id] = s.id if s.parent is None else root[s.parent]
    return root
