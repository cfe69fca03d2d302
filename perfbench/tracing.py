"""Per-layer timing from outside the program.

The benchmark adds no spans inside ``src/``.  Instead, a traced run wraps
the public functions at each layer boundary (a class method, or a module
global looked up at call time) with a timer, runs the workload, and
restores the originals.  Nested wrapped calls on one thread form a stack,
so every span reports both its inclusive time and its self time (inclusive
minus the wrapped calls it made).  Setting :attr:`Tracer.phase` files the
spans recorded from then on under ``"<phase>:<span>"``, so one run can
separate, say, ingest from recovery when both call the same function.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Accumulates per-span inclusive time, self time and call counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.phase = ""

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        """``function`` with every call recorded under span ``name``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = f"{self.phase}:{name}" if self.phase else name
                with self._lock:
                    self.total[key] += elapsed
                    self.self_time[key] += elapsed - children
                    self.calls[key] += 1

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]) -> Iterator["Tracer"]:
        """Wrap each ``(owner, attribute, span)`` target for the ``with`` body.

        ``owner`` is a class or a module.  An attribute a class inherits is
        shadowed on that class and removed again afterwards, so the base
        class is never touched.
        """
        saved: list[tuple[object, str, bool, object]] = []
        try:
            for owner, attribute, span in targets:
                owned = attribute in vars(owner)
                original = vars(owner)[attribute] if owned else getattr(owner, attribute)
                saved.append((owner, attribute, owned, original))
                setattr(owner, attribute, self.wrap(span, getattr(owner, attribute)))
            yield self
        finally:
            for owner, attribute, owned, original in reversed(saved):
                if owned:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    def reset(self) -> None:
        """Forget everything recorded so far (start of a new phase)."""
        with self._lock:
            self.total.clear()
            self.self_time.clear()
            self.calls.clear()
