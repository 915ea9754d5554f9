"""In-memory timing spans recorded from wrappers around public functions.

The traced run of the benchmark replaces a fixed list of public functions of
``repro`` with thin wrappers that open a span around each call.  Nothing
inside ``src/repro`` changes: :func:`install` swaps attributes on the owning
class or module, and :func:`restore` puts the original objects back.

A span records its name, start, end, parent span and run id.  Spans live in
memory until the run ends.  Calls made in another process (a forked worker
inherits the wrappers) pass straight through, so worker-side time is read
from result fields instead.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Largest total by which the children of one span may overlap each other or
#: stick out of their parent before the trace is declared inconsistent.
COVERAGE_REMAINDER_S = 1e-6


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: int
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process; the open-span stack gives parents."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def in_owner(self) -> bool:
        """True in the process that created the recorder (not a forked child)."""
        return os.getpid() == self.pid


def span_records(spans: list[Span]) -> list[dict[str, Any]]:
    """JSON-able span list, times relative to the first span's start."""
    origin = spans[0].start if spans else 0.0
    return [
        {
            "name": span.name,
            "start": span.start - origin,
            "end": span.end - origin,
            "parent": span.parent,
            "run_id": span.run_id,
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for span in spans
    ]


AttrsFn = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """A public function to time: ``owner.attr`` recorded as ``span_name``.

    ``attrs`` optionally maps ``(args, kwargs, result)`` to span attributes;
    it runs after the span has ended.  ``wrap(function, recorder)`` replaces
    the span wrapper with a custom one.
    """

    owner: Any
    attr: str
    span_name: str
    attrs: AttrsFn | None = None
    wrap: Callable[[Callable, "Recorder"], Callable] | None = None


@dataclass
class Patch:
    owner: Any
    attr: str
    original: Any


def _timed(function: Callable, target: Target, recorder: Recorder) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.in_owner():
            return function(*args, **kwargs)
        index = recorder.begin(target.span_name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if target.attrs is not None:
            recorder.spans[index].attrs.update(target.attrs(args, kwargs, result))
        return result

    return wrapper


def install(recorder: Recorder, targets: Iterable[Target]) -> list[Patch]:
    """Wrap every target; returns the patches :func:`restore` undoes."""
    patches: list[Patch] = []
    try:
        for target in targets:
            if inspect.isclass(target.owner):
                original = target.owner.__dict__[target.attr]
            else:
                original = getattr(target.owner, target.attr)
            if not inspect.isfunction(original):
                raise TypeError(
                    f"{target.owner!r}.{target.attr} is not a plain function"
                )
            if target.wrap is not None:
                wrapper = target.wrap(original, recorder)
            else:
                wrapper = _timed(original, target, recorder)
            setattr(target.owner, target.attr, wrapper)
            patches.append(Patch(target.owner, target.attr, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[Patch]) -> None:
    """Put the original functions back, newest patch first."""
    while patches:
        patch = patches.pop()
        setattr(patch.owner, patch.attr, patch.original)


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            kids.setdefault(span.parent, []).append(index)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    kids = children_of(spans)
    return [
        span.duration - sum(spans[k].duration for k in kids.get(index, ()))
        for index, span in enumerate(spans)
    ]


def coverage_remainder(spans: list[Span]) -> float:
    """Worst amount by which children fail to tile inside their parent.

    For each parent, children plus self time must add up to the parent's
    duration with the children disjoint and inside it.  The remainder is the
    children's total duration minus the length of their union clipped to the
    parent, i.e. time counted twice or counted outside the parent.
    """
    worst = 0.0
    for parent, kids in children_of(spans).items():
        lo, hi = spans[parent].start, spans[parent].end
        covered = 0.0
        cursor = lo
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, cursor, lo), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        total = sum(spans[k].duration for k in kids)
        worst = max(worst, total - covered)
    return worst


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of spans called ``name`` with no ``name`` ancestor."""
    return [
        index
        for index, span in enumerate(spans)
        if span.name == name and not has_ancestor(spans, index, name)
    ]


def total_seconds(spans: list[Span], name: str) -> float:
    """Inclusive time in ``name``, counting recursive calls once."""
    return sum(spans[i].duration for i in outermost(spans, name))
