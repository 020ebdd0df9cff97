"""Span tracer that wraps the package's public functions from outside.

The tracer replaces a module attribute (the binding a caller actually
looks up at call time, e.g. ``shiftsse.sampler.contract``) with a timing
wrapper and restores it afterwards. The package source is never edited.

Every wrapper keeps per-name counters: calls, total time, and self time
(the call's duration minus the time its traced children covered). Names
marked ``span=True`` also append one span ``(id, name, start, end,
parent_id)`` per call to an in-memory list that is written out after the
run; the innermost high-count calls (weight evaluation, contraction,
bond-term application, accumulator adds) are counters only, so the trace
stays small and the overhead moderate.

A target whose module or attribute does not exist is recorded as missing
and reports ``calls = 0``; the run goes on.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Stat:
    """Aggregated counters for one traced name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: array | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``module`` + dotted ``attr`` recorded as ``name``.

    ``before(args)`` runs ahead of the call and returns a token handed to
    ``after(stat, token, args, result)``, which may add to ``stat.extra``.
    """

    module: str
    attr: str
    name: str
    span: bool = False
    durations: bool = False
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    """Installs wrappers, collects counters and spans, restores on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def install(self, targets) -> None:
        for target in targets:
            stat = self.stat(target.name)
            if target.durations and stat.durations is None:
                stat.durations = array("d")
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(target, stat, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, stat: Stat, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans if target.span else None
        durations = stat.durations
        before, after = target.before, target.after
        name = target.name
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [child seconds, id of the nearest recorded span]
            if spans is not None:
                tracer._next_id += 1
                frame = [0.0, tracer._next_id]
            else:
                frame = [0.0, parent[1] if parent else 0]
            token = before(args) if before else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if durations is not None:
                    durations.append(elapsed)
                if spans is not None:
                    spans.append((frame[1], name, start, end, parent[1] if parent else 0))
            if after:
                after(stat, token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: Path) -> None:
        """One JSON object per line: id, name, start, end (s), parent id (0 = root)."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def median_us(stat: Stat) -> float:
    """Median call duration in microseconds; 0 when never called."""
    if not stat.durations:
        return 0.0
    return statistics.median(stat.durations) * 1e6


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, falling back to the median for short series."""
    data = sorted(samples)
    if not data:
        return 50.0, 0.0
    for pct in TAIL_LADDER:
        if len(data) * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        pct = 50.0
    index = min(len(data) - 1, int(len(data) * pct / 100.0))
    return pct, data[index]
