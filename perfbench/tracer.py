"""Spans around the public functions of each fanfree layer.

The tracer replaces every module-level binding of a traced function in
the fanfree modules (its defining module and each module that imported
it) with one wrapper, so calls across modules and inside a module are
both seen.  It is installed only in a traced worker process.

A span is [name, parent, start, end, failed, returned_true, warnings].
A generator's span covers one ``next`` call, so its busy time is the
time spent producing items and its count of spans that returned an item
is its yield count.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import warnings
from collections import defaultdict

TRACED = {
    "graphs": ["graph6_decode", "graph6_encode"],
    "enumeration": ["enumerate_graphs", "canonical_form", "write_graph6"],
    "fans": ["is_fan_free", "contains_fan"],
    "spectral": ["q1", "spectrum", "rayleigh_power_lambda1", "merris_bound",
                 "signless_laplacian"],
    "search": ["certify_max_q1", "emit_certificate"],
    "cli": ["main"],
}
GENERATORS = {"enumerate_graphs"}

NAME, PARENT, START, END, FAILED, TRUE, WARNINGS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.warnings = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, False, False, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, *, failed: bool = False, result=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        span[TRUE] = result is True
        self.stack.pop()

    def _wrap_function(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, failed=True)
                raise
            self._close(idx, result=result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx, failed=True)
                        raise
                    self._close(idx, result=True)
                    yield item
            finally:
                inner.close()
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded fanfree modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fanfree" or key.startswith("fanfree."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"fanfree.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap_function
                wrapper = wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def showwarning(self, *args, **kwargs) -> None:
        """Count a warning, and against every open span, instead of printing it."""
        self.warnings += 1
        for idx in self.stack:
            self.spans[idx][WARNINGS] += 1

    def reset(self) -> None:
        self.spans.clear()
        self.warnings = 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: spans, spans that returned True (or yielded),
        failed spans, warnings, busy time (summed span durations) and self
        time (busy time not covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {
            "spans": 0, "true": 0, "failed": 0, "warnings": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            s = stats[span[NAME]]
            busy = span[END] - span[START]
            s["spans"] += 1
            s["true"] += span[TRUE]
            s["failed"] += span[FAILED]
            s["warnings"] += span[WARNINGS]
            s["busy_s"] += busy
            s["self_s"] += busy - child_time[idx]
        return dict(stats)


@contextlib.contextmanager
def recorded_warnings(counter):
    """Send every warning to ``counter`` instead of printing it."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = counter
        yield
