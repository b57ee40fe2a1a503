"""Spans around the benchmark's calls into modens' public functions.

A ``Tracer`` replaces a function by a wrapper in every loaded modens module
that bound it (``from .data import load_dataset_csv`` makes a second
binding), records one span per call (name, start, end, parent, the unit of
work it ran in, and optional counts), and keeps the spans in memory until
``write`` saves them.  ``restore`` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit = "setup0"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, unit=self.unit))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None,
             result_span: str | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``counts(args, result)`` may
        return a dict of work counts stored on the span.  With
        ``result_span``, the callable that ``fn`` returns is recorded too."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counts is not None:
                self.spans[idx].counts = counts(args, result)
            if result_span is not None:
                result = self.wrap(result_span, result)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              counts: Callable | None = None, result_span: str | None = None) -> None:
        """Wrap ``owner.attr`` and every other binding of the same function
        in loaded modens modules."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, counts, result_span)
        targets = [owner] + [m for key, m in sys.modules.items()
                             if key.startswith("modens") and m is not owner]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patched.append((target, key, value))
                    setattr(target, key, wrapper)

    def restore(self) -> None:
        for target, key, value in reversed(self._patched):
            setattr(target, key, value)
        self._patched.clear()

    # -- reading ---------------------------------------------------------
    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def per_unit(self, *names: str) -> dict[str, float]:
        """Summed duration of the named spans in each unit of work that has
        any, counting a span nested in another of the names once."""
        wanted = set(names)
        out: dict[str, float] = {}
        for s in self.spans:
            if s.name in wanted and not self._has_ancestor_in(s, wanted):
                out[s.unit] = out.get(s.unit, 0.0) + s.duration
        return out

    def count_per_unit(self, key: str, *names: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.named(*names):
            out[s.unit] = out.get(s.unit, 0.0) + s.counts.get(key, 1)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children never overlap: the calls are sequential)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def has_ancestor(self, span: Span, name: str) -> bool:
        return self._has_ancestor_in(span, {name})

    def _has_ancestor_in(self, span: Span, names: set[str]) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "unit": s.unit, **({"counts": s.counts} if s.counts else {})}
               for s in self.spans]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
