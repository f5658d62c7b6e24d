"""In-memory span recorder for the traced benchmark run.

A span has a name ("<layer>.<function>"), start and end times, the span
that was open when it began (its parent), and the request id the
benchmark set for the query row, pass or session being served. Layers are
the xlc modules. `instrument` wraps each public function of each module
from outside, and rebinds every module attribute that refers to it, so a
call that one module makes into another through a name it imported also
records a span. Nothing in the package is edited; `restore` undoes it.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("dataio", "matrix", "nmf", "autoencoder", "pipeline", "interpret", "cli")


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "failed",
                 "info")

    def __init__(self, sid, name, parent, request, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.failed = False
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start, "end": self.end,
                "failed": self.failed, "info": self.info}


class Tracer:
    """Records spans; a disabled tracer records nothing and costs one
    attribute test per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = None         # set by the benchmark per row or session
        self._patched = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        s = self._open(name)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            self._close(s)

    def _open(self, name) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------ instrumentation

    def instrument(self, package, annotate=None) -> None:
        """Wrap every public function of every layer module of `package`.

        annotate maps a span name to a function of the call's result whose
        return value is stored in span.info (used for counts such as the
        number of NMF iterations).
        """
        annotate = annotate or {}
        modules = [getattr(package, name) for name in LAYERS]
        wrappers = {}
        for mod in modules:
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    span_name = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
                    wrappers[fn] = self._wrap(fn, span_name,
                                               annotate.get(span_name))
        for mod in modules + [package]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def restore(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def _wrap(self, fn, span_name, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                tracer._close(s)
            if annotate is not None:
                s.info = annotate(result)
            return result

        return wrapper

    # -------------------------------------------------------------- queries

    def self_times(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def under(self, phase: str, name: str | None = None) -> list[Span]:
        """Spans called `name` (all spans when None) inside a span called
        `phase`."""
        inside = set()
        out = []
        for s in self.spans:               # parents precede children
            if s.name == phase or s.parent in inside:
                inside.add(s.sid)
                if s.name != phase and (name is None or s.name == name):
                    out.append(s)
        return out

    def children(self, span: Span, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid and s.name == name]

    def layer_summary(self) -> dict:
        """Per layer: calls, failed calls and total self time in seconds."""
        own = self.self_times()
        out = {layer: [0, 0, 0.0] for layer in LAYERS}
        for s in self.spans:
            if s.layer in out:
                row = out[s.layer]
                row[0] += 1
                row[1] += int(s.failed)
                row[2] += own[s.sid]
        return out
