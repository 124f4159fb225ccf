"""In-memory spans around calls into the program's layers.

A ``Tracer`` replaces a function at the module attribute its caller looks
it up from with a wrapper that records one span per call: name, start,
end (``time.perf_counter`` seconds) and the index of the enclosing span.
Spans stay in memory until ``dump`` writes them out at the end of a run.
Optional ``attrs`` hooks attach facts read from the call's result (the
budget case of a solve, the steps of an integration) to its span.

The analysis half (``self_times``, ``percentile``) is pure Python so the
benchmark's parent process and its self-tests can use it without the
program.
"""
from __future__ import annotations

import functools
import json
import math
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self._stack = []

    def wrap(self, module, attr, name, attrs=None):
        """Record a span named ``name`` for every call of ``module.attr``.
        A name the module no longer has is skipped; its layer reads 0."""
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def self_times(spans):
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: their durations simply add up.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def percentile(values, q, min_beyond=10):
    """The q-quantile (0 < q < 1) of ``values``, or None when fewer than
    ``min_beyond`` samples lie above it, so a tail figure is never read off
    a handful of points. Nearest-rank on the sorted samples."""
    n = len(values)
    rank = max(0, math.ceil(q * n) - 1)
    if n - 1 - rank < min_beyond:
        return None
    return sorted(values)[rank]
