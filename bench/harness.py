"""Operations, their oracle checks, and the spans and counters around them.

An operation's ``run`` is the timed call into photonlab; its ``check``
compares the result with an independent oracle after the pass, outside
the timed region, and returns a list of failure messages.  ``check`` also
sees the results of the operations before it in the same pass, for
oracles that compare two results.

The spans sit in the benchmark's own code, at each call into a layer's
public functions; nothing inside ``src/`` is instrumented.  A span's self
time is its duration minus the time covered by spans opened inside it, so
nested spans never count the same interval twice.  Spans stay in memory
and are summed after each operation, outside its timing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable[[object, dict], list]


@dataclass
class Workload:
    ops: list
    warmup: Op
    # per-run facts the operations collect: child import times, CSV hashes
    info: dict = field(default_factory=dict)
    # the calibrate.py kernel whose speed tracks this workload's
    reference: str = "interpreter"


def expect(ok: bool, message: str) -> list:
    return [] if ok else [message]


def run_checks(ops: list, results: dict, errors: dict) -> list:
    """(op name, message) for every operation that raised or missed its oracle."""
    failures = []
    for op in ops:
        if op.name in errors:
            failures.append((op.name, errors[op.name]))
            continue
        try:
            messages = op.check(results[op.name], results)
        except Exception as exc:  # a crashing oracle is a failed check, not a crashed run
            messages = [f"oracle raised {type(exc).__name__}: {exc}"]
        failures.extend((op.name, m) for m in messages)
    return failures


class _Span:
    __slots__ = ("tracer", "name", "start", "child_time")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.child_time = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        duration = end - self.start
        if tracer._stack:
            tracer._stack[-1].child_time += duration
        tracer.spans.append((self.name, self.start, end, duration - self.child_time))
        return False


class Tracer:
    """Collects (name, start, end, self time) spans and named counts."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere, such as in a child process."""
        self.spans.append((name, start, end, end - start))

    def take_self_times(self) -> dict[str, float]:
        """Self time per span name over the spans since the last call, which are dropped."""
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, self_time in self.spans:
            totals[name] += self_time
        self.spans.clear()
        return dict(totals)


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass
