"""In-memory spans around the public functions of each minkplanar layer.

The tracer wraps functions from outside the package: every minkplanar
module that bound a target function (``from .drawings import validate``
binds ``minkplanar.search.validate``, for instance) gets the wrapper under
that same name, so calls are seen whichever module makes them.  Classes
are traced through their ``__init__``.  Nothing under ``src/`` changes;
the wrappers are removed again when ``Tracer.installed`` exits, so the
untraced passes of a traced run call the original functions.

A span is ``(name, phase, start, end, parent)``; ``parent`` is the index
of the enclosing span or -1.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.phase = "timed"
        self._stack: list[int] = []

    # ---------------------------------------------------------- recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, _clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.phase, name)] += n

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if observe is not None:
                    observe(tracer, args, kwargs, None, err)
                raise
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, args, kwargs, out, None)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap ``targets`` while the block runs, then restore them.

        ``targets`` holds ``(span name, module, attribute, observe)``; an
        attribute of the form ``Class.__init__`` wraps the constructor.
        """
        undo = []
        try:
            for name, module, attr, observe in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, observe))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(name, orig, observe)
                for mod in _package_modules(module.__name__.split(".")[0]):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


def _package_modules(package: str):
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]


def self_times(spans) -> list[float]:
    """Self time of every span, in the order given."""
    child = [0.0] * len(spans)
    for name, phase, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def aggregate(spans, phase: str) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, summed duration and call count."""
    selfs = self_times(spans)
    self_s: dict[str, float] = collections.defaultdict(float)
    total_s: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, int] = collections.defaultdict(int)
    for s, own in zip(spans, selfs):
        if s[1] != phase:
            continue
        self_s[s[0]] += own
        total_s[s[0]] += s[3] - s[2]
        calls[s[0]] += 1
    return self_s, total_s, calls
