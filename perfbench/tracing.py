"""Spans at the program's layer boundaries, recorded from outside it.

The program has no tracing of its own. A `Tracer` rebinds the public
functions named by its `Target`s (module attributes, or a class
attribute for `Tensor.backward`) to wrappers that record a span per
call, and restores the originals on `uninstall`. Callers look these
names up at call time, so a wrapper installed between two minibatches
sees every later call. Nothing is wrapped while the tracer is not
installed, so untraced work runs the program's own code unchanged.

Spans are kept in memory as (name, parent index, start, end) and reduced
when the run ends. A layer's self time is its span's duration minus the
durations of its direct children; the run is single-threaded, so
children never overlap and no span waits on another.

Every timing is taken on the process's CPU clock (``time.process_time``),
with the wall clock read alongside at the outermost unit. The run is
single-threaded, so its CPU time is its wall time less the time the host
gave the core to someone else: on a shared machine that share swings by
tens of percent between runs, and the CPU clock does not see it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, NamedTuple

# Work the tracer does itself (counting graph edges, walking the tape)
# is recorded under this name so it is excluded from every layer's self
# time and reported as instrumentation cost instead.
PROBE = "trace.probe"


class Stamp(NamedTuple):
    """One moment on both clocks, in seconds."""

    cpu: float
    wall: float


def stamp():
    return Stamp(process_time(), perf_counter())


def durations(intervals, clock):
    """Lengths of (start, end) Stamp pairs on ``clock``: "cpu" or "wall"."""
    return [getattr(end, clock) - getattr(start, clock) for start, end in intervals]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``span``.

    ``before(counts, args)`` runs before the call and ``after(counts,
    result)`` after it, both inside a PROBE span, to record counts where
    the work happens. An exception in either is kept in the tracer's
    ``probe_errors``, not charged to the layer.
    """

    owner: object
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None

    @property
    def layer(self):
        return self.span.split(".", 1)[0]


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []                 # [name, parent, start, end]
        self.counts = Counter()
        self.failed = Counter()         # exceptions, by innermost layer
        self.probe_errors = Counter()   # exceptions in the benchmark's own probes
        self.missing = []               # targets the program no longer has
        self._stack = []
        self._saved = []
        self._last_error = None

    def install(self):
        if self._saved:
            return
        self.missing = []
        for target in self.targets:
            original = getattr(target.owner, target.attr, None)
            if original is None:
                self.missing.append(f"{target.owner.__name__}.{target.attr}")
                continue
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, process_time(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index):
        self.spans[index][3] = process_time()
        self._stack.pop()

    def _probe(self, fn, *args):
        # a probe is the benchmark's own code: its fault is recorded
        # apart from the program's failures and never reaches the program
        index = self.enter(PROBE)
        try:
            fn(self.counts, *args)
        except Exception as exc:
            self.probe_errors[f"{fn.__name__}: {type(exc).__name__}"] += 1
        finally:
            self.exit(index)

    def _wrap(self, fn, target):
        tracer = self

        def traced(*args, **kwargs):
            if target.before is not None:
                tracer._probe(target.before, args)
            index = tracer.enter(target.span)
            try:
                result = fn(*args, **kwargs)
                if target.after is not None:
                    tracer._probe(target.after, result)
                return result
            except Exception as exc:
                # an exception passes up through every enclosing span;
                # charge it once, to the layer that raised it
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.failed[target.layer] += 1
                raise
            finally:
                tracer.exit(index)

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        return self_times(self.spans)

    def calls(self):
        return Counter(span[0] for span in self.spans)


def self_times(spans):
    """Total self time per span name, in seconds.

    ``spans`` holds (name, parent index or -1, start, end) rows whose
    parents come before their children.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    for k, (name, _, start, end) in enumerate(spans):
        totals[name] += (end - start) - covered[k]
    return dict(totals)


class CallClock:
    """Stamps every call of ``owner.attr`` while installed: ``intervals``
    holds a (start, end) pair of Stamps per call.

    Used in untraced runs too: it is the benchmark's own stopwatch at
    the outermost unit (one Adam step, one clip scoring). ``after_call(k)``
    runs after the k-th call (1-based) returns; ``resumed`` holds the
    Stamp at which each hook returned, so the hook's own time can be
    left out of the gap before the next call.
    """

    def __init__(self, owner, attr, after_call=None):
        self.owner, self.attr = owner, attr
        self.after_call = after_call
        self.intervals = []
        self.resumed = []
        self._original = None

    def install(self):
        self._original = getattr(self.owner, self.attr)
        original, clock = self._original, self

        def timed(*args, **kwargs):
            start = stamp()
            result = original(*args, **kwargs)
            clock.intervals.append((start, stamp()))
            if clock.after_call is not None:
                clock.after_call(len(clock.intervals))
            clock.resumed.append(stamp())
            return result

        timed.__wrapped__ = original
        setattr(self.owner, self.attr, timed)

    def uninstall(self):
        if self._original is not None:
            setattr(self.owner, self.attr, self._original)
            self._original = None
