"""Span recording from outside the program.

A :class:`Tracer` replaces public functions of ``repro`` modules, at the
names their callers look them up by, with wrappers that record one span
per call: name, start, end, parent span and operation id.  Spans stay
in memory until the run ends.  With tracing off the benchmark installs
no wrapper at all, so the untraced run executes the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        #: (span id, parent id, op id, name, start ns, end ns)
        self.spans: list[tuple] = []
        #: per-op counters: op id -> name -> value
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple] = []
        self.op_id = 0

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end))

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the current operation's counter ``name``."""
        row = self.counts[self.op_id]
        row[name] = row.get(name, 0) + value

    def wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- installing ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, make=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (or with
        ``make(original)`` when given) until :meth:`unpatch_all`."""
        original = getattr(owner, attr)
        replacement = make(original) if make else self.wrapper(name, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def _rooted(self, roots) -> dict[int, tuple]:
        """Spans recorded inside a root span (span id -> span); calls
        made by the benchmark's own checks fall outside and are
        dropped."""
        by_id = {span[0]: span for span in self.spans}
        memo: dict[int, bool] = {0: False}

        def inside(span_id: int) -> bool:
            chain = []
            while span_id not in memo:
                span = by_id[span_id]
                if span[3] in roots:
                    memo[span_id] = True
                    break
                chain.append(span_id)
                span_id = span[1]
            for link in chain:
                memo[link] = memo[span_id]
            return memo[span_id]

        return {sid: span for sid, span in by_id.items() if inside(sid)}

    def self_times(self, roots) -> dict[int, dict[str, float]]:
        """op id -> span name -> self time in ms, summed over the op."""
        spans = self._rooted(roots)
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in spans.values():
            if parent:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, _, op, name, start, end in spans.values():
            out[op][name] += (end - start - child_ns[span_id]) / 1e6
        return out

    def coverage(self, roots) -> float:
        """Median over root spans of the share of their time that their
        child spans cover."""
        durations = {span_id: end - start
                     for span_id, _, _, name, start, end in self.spans
                     if name in roots}
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent in durations:
                covered[parent] += end - start
        shares = [covered[s] / d for s, d in durations.items() if d > 0]
        return statistics.median(shares) if shares else 0.0

    def durations(self, name: str) -> list[float]:
        """Every span ``name``'s full duration in ms."""
        return [(end - start) / 1e6 for _, _, _, n, start, end in self.spans
                if n == name]

    def dump(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with open(path, "w") as handle:
            json.dump({"header": header, "fields": fields,
                       "spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}},
                      handle)
