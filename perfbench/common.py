"""Shared pieces of the workloads: timing, failure accounting, spans.

Spans are recorded from the benchmark's own files: around the calls a
workload makes into the package, and by wrapping the module attributes
the package looks up internally (for example `metricshape.refine.total_loss`).
They live in memory until the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback

from oracle import CheckError

now = time.perf_counter


class Tracer:
    """In-memory spans: (name, start, end, parent index), single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        self.calls[name] += 1
        self.spans.append([name, now(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace `module.attr` by a timing wrapper until `remove()`."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    # -- aggregates -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def mean_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1000.0 * sum(d) / len(d) if d else 0.0

    def child_time(self, parent: str) -> float:
        """Total time of spans whose direct parent is a `parent` span."""
        names = [s[0] for s in self.spans]
        return sum(s[2] - s[1] for s in self.spans if s[3] >= 0 and names[s[3]] == parent)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")


class NoTracer:
    """Tracing off: spans cost one call to a shared null context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Outcome:
    """Operations attempted and failed (by exception type), and check failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: collections.Counter = collections.Counter()
        self.check_failures: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; return (result or None, seconds, exception or None)."""
        self.attempted += 1
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted and named, none is fatal
            dt = now() - t0
            self.fail(type(exc).__name__)
            return None, dt, exc
        return result, now() - t0, None

    def fail(self, kind: str) -> None:
        """Count the last attempted operation as failed, under `kind`."""
        self.failed += 1
        self.errors[kind] += 1

    def reject(self, message: str) -> None:
        """Mark the run incorrect."""
        if len(self.check_failures) < 20:
            self.check_failures.append(message)

    def check(self, fn, *args) -> None:
        """Run one output check; a CheckError marks the run incorrect."""
        try:
            fn(*args)
        except CheckError as exc:
            self.reject(str(exc))


def run_rounds(seconds: float, body) -> list[list[float]]:
    """Call `body()` in whole rounds until about `seconds` have passed.

    `body` runs the same operations every round and returns their wall
    times. Another round starts while at least half of one still fits, so
    the run ends within half a round of `seconds`.
    """
    start = now()
    rounds = []
    while True:
        t0 = now()
        rounds.append(body())
        took = now() - t0
        if now() - start + took / 2 > seconds:
            return rounds


def fastest_round(rounds: list[list[float | None]]) -> float:
    """Each operation's shortest time over the rounds, summed over one round.

    Every round lists the same operations; `None` stands for one that did
    not run because an earlier one failed, so it is taken over the rounds
    in which it ran and a failure never drops work from the sum (one that
    never ran adds nothing; the failure before it has marked the run
    incorrect).
    Other tenants of the host slow whole stretches of a run (identical
    rounds here differ by up to 1.8x); the shortest of several repeats of
    an operation varies far less between runs than a mean or a median.
    """
    return sum(fastest_each(rounds))


def fastest_each(rounds: list[list[float | None]]) -> list[float]:
    """Each operation's shortest time over the rounds in which it ran."""
    return [min((t for t in times if t is not None), default=0.0) for times in zip(*rounds)]


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()
