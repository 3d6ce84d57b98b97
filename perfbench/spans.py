"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: :class:`Tracer` replaces a
public ``qracsim`` function with a timing wrapper in every ``qracsim``
module that holds it, so calls made from inside the package (for example
``nsqrac_split_strategy`` calling ``constrained_teleport_fidelity``, or
``search_tables`` calling ``run_protocol``) are recorded as child spans of
their caller.  Leaving the ``with`` block restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, extract=None):
        """Time ``module.attr``; ``extract(args, kwargs, result)`` fills the span's info."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        for mod in [m for n, m in sys.modules.items() if n == "qracsim" or n.startswith("qracsim.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def close(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the time its direct children cover (calls are sequential)."""
        idx = next(i for i, s in enumerate(self.spans) if s is span)
        return span.duration - sum(s.duration for s in self.spans if s.parent == idx)
