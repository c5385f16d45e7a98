"""Span tracing from outside the library.

`Tracer.wrap` replaces a module attribute with a wrapper that records one
span (name, start, end, parent, attributes) per call.  Calls that go through
the module attribute -- `solver.solve_fixed_mu(...)` from `sweep_frontier`,
`examples.gaussian_quantized_spec(...)` from the CLI -- are seen; names bound
earlier with `from module import name` are not, and their time stays in the
caller's span.  Spans are kept in memory and written out once at the end.
The tracer keeps one call stack, so trace single-threaded code only.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index, attrs]
        self._stack = []           # indices of the open spans
        self._patches = []

    def wrap(self, module, name, attrs=None):
        """Trace `module.name`; `attrs(args, kwargs, result)` -> dict."""
        orig = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = self._stack
            rec = [label, time.perf_counter(), None,
                   stack[-1] if stack else None, {}]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        setattr(module, name, traced)
        self._patches.append((module, name, orig))

    def remove(self):
        for module, name, orig in reversed(self._patches):
            setattr(module, name, orig)
        self._patches.clear()

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"meta": meta,
               "fields": ["name", "start_s", "end_s", "parent", "attrs"],
               "spans": [[n, s - t0, e - t0, p, a]
                         for n, s, e, p, a in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
