"""Spans around the calls into each cfstats layer, from outside the program.

The tracer replaces public functions by wrappers through their module
(or class) attributes, so every caller that looks the name up at call
time is traced too: `bulk.jp_digits` is the name the JP sweeps call for
their depth-first fallback, and `spectral.leading_eigenvalue` the name
the derivative suite calls for each solve.  Nothing under src/ changes;
`uninstall` puts the original attributes back.

A span is (name, start, end, parent); spans and counts stay in memory
until the run writes them out.
"""

import functools
import inspect
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn, on_result, on_error):
        if inspect.isgeneratorfunction(fn):
            # consume the generator inside the span, so the work it does is
            # timed where it happens rather than in whoever iterates it
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))
        else:
            call = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = call(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, out, args)
            return out

        return wrapper

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Replace owner.attr by a traced wrapper (classmethods included)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, on_result, on_error))
        else:
            new = self._wrap(name, raw, on_result, on_error)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reductions ----------------------------------------------------
    def self_times(self) -> list:
        """Per span: its duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_of(self, i: int) -> int:
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return i

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
