"""Self-time spans around the functions the CLI calls.

A span is installed by replacing a module attribute (``cli.simulate``,
``scheduler.fw_blocked``, ...) with a wrapper that times the call and passes
its return value through unchanged. The caller looks the name up at call
time, so it runs through the wrapper; the original is restored on exit, even
when a command raises.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Per-label self time of wrapped calls.

    targets is a list of (label, module, attribute). Several targets may
    share a label; their times add up. observers maps a label to a callable
    ``fn(args, kwargs, result)`` run after each successful call, outside the
    span, so it can inspect a return value without being timed.
    """

    def __init__(self, targets, observers=None):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.missing: list[str] = []
        self._self_s: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        # One accumulator per open span for the time of its direct children;
        # the bottom entry collects the time of top-level spans.
        self._child_s = [0.0]

    def _wrap(self, label, fn):
        observe = self.observers.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._self_s[label] += elapsed - self._child_s.pop()
                self._child_s[-1] += elapsed
                self._calls[label] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for label, module, attr in self.targets:
                if not hasattr(module, attr):
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(label, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Return (self seconds per label, calls per label, seconds inside
        top-level spans) accumulated since the last take, and reset them."""
        out = (dict(self._self_s), dict(self._calls), self._child_s[0])
        self._self_s.clear()
        self._calls.clear()
        self._child_s[0] = 0.0
        return out
