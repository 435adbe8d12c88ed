"""Outside-in span tracer: wraps attributes of the program's classes and modules.

A :class:`Target` names one attribute (a method on a class, or a function on
a module) and the span name its calls are recorded under.  While a
:class:`Tracer` is installed, every call of a target records one span
``(run_id, span_id, parent_id, name, start, end)``; the parent is the
innermost enclosing traced call in the same process.  Spans stay in memory
and are written once, when the run ends.  :meth:`Tracer.uninstall` puts the
original attributes back, so code run afterwards executes unwrapped.

Forked children (the parallel engine's shard workers) inherit the wrappers.
Each child starts an empty span list under its own run id, and a target
marked ``flush`` writes the child's spans to ``flush_dir`` after it returns,
so a parent can merge them in :meth:`Tracer.collect_flushed`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

__all__ = ["Target", "Span", "Tracer", "write_spans", "read_spans", "self_times", "aggregate"]

#: Clock used for every span.  CLOCK_MONOTONIC is system-wide, so stamps
#: taken in different processes can be subtracted.
clock = time.monotonic


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``tally`` maps a call's return value to a number summed per span name
    (for example the length of a generated job list).  ``flush`` makes a
    forked child write its spans to disk after the call returns.
    """

    owner: object
    attr: str
    name: str
    tally: Optional[Callable[[object], float]] = None
    flush: bool = False


class Span(NamedTuple):
    run_id: str
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls of ``targets`` between install and uninstall."""

    def __init__(
        self,
        targets: Sequence[Target],
        run_id: str = "main",
        flush_dir: Optional[str] = None,
        clock: Callable[[], float] = clock,
    ):
        self.targets = list(targets)
        self.run_id = run_id
        self.flush_dir = flush_dir
        self.clock = clock
        self.spans: List[Optional[tuple]] = []
        self.tallies: Dict[str, float] = {}
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._owner_pid = os.getpid()
        self._fork_hook_registered = False

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                original = target.owner.__dict__[target.attr]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{target.owner!r}.{target.attr} is not a plain function")
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(original, target))
        except BaseException:
            self.uninstall()
            raise
        if not self._fork_hook_registered:
            # A fork hook cannot be unregistered; it does nothing once the
            # tracer is uninstalled.
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook_registered = True
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _after_fork(self) -> None:
        if self._saved:
            self.spans = []
            self.tallies = {}
            self._stack = []
            self.run_id = f"{self.run_id}/pid{os.getpid()}"

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, tally, flush = target.name, target.tally, target.flush

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span_id = len(spans)
            spans.append(None)  # reserve the slot; children append after it
            parent_id = stack[-1] if stack else -1
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[span_id] = (span_id, parent_id, name, start, end)
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0) + tally(result)
            if flush and self.flush_dir is not None and os.getpid() != self._owner_pid:
                self.write(os.path.join(self.flush_dir, f"spans-{os.getpid()}.json"))
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Reading the spans
    # ------------------------------------------------------------------ #
    def finished(self) -> List[Span]:
        """This process's spans (open ones, if any, are skipped)."""
        return [Span(self.run_id, *s) for s in self.spans if s is not None]

    def write(self, path: str) -> None:
        write_spans(path, self.finished(), self.tallies)

    def collect_flushed(self) -> List[Span]:
        """Spans written by forked children into ``flush_dir``; tallies merged."""
        spans: List[Span] = []
        if self.flush_dir is None:
            return spans
        for path in sorted(glob.glob(os.path.join(self.flush_dir, "spans-*.json"))):
            child_spans, tallies = read_spans(path)
            os.remove(path)
            spans.extend(child_spans)
            for name, value in tallies.items():
                self.tallies[name] = self.tallies.get(name, 0) + value
        return spans


def write_spans(path: str, spans: Iterable[Span], tallies: Dict[str, float], **meta) -> None:
    """Write spans (one list per span, fields in :class:`Span` order) as JSON."""
    payload = dict(meta, tallies=tallies, spans=[list(s) for s in spans])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def read_spans(path: str):
    """The spans and tallies a :func:`write_spans` file holds."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return [Span(*s) for s in payload["spans"]], payload["tallies"]


# --------------------------------------------------------------------------- #
# Arithmetic over finished spans
# --------------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[tuple, float]:
    """Self time of each span: its duration minus its direct children's.

    Keyed by ``(run_id, span_id)``; span ids are only unique within a run.
    """
    spans = list(spans)
    result = {(s.run_id, s.span_id): s.duration for s in spans}
    for s in spans:
        if s.parent_id >= 0:
            result[(s.run_id, s.parent_id)] -= s.duration
    return result


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(spans: Iterable[Span]) -> Dict[str, Aggregate]:
    """Calls, inclusive time and self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Aggregate] = {}
    for s in spans:
        agg = out.setdefault(s.name, Aggregate())
        agg.calls += 1
        agg.total_s += s.duration
        agg.self_s += own[(s.run_id, s.span_id)]
    return out
