"""In-memory spans recorded by the harness around calls into each layer.

The program under test carries no spans of its own yet, so the traced
pass wraps its public functions from outside: :meth:`Tracer.wrap`
replaces a module or class attribute with a recording wrapper for the
duration of the pass and puts the original back afterwards.  A span is
``{name, layer, start, end, parent, workload}``; a layer's *self time*
is its spans' duration minus the part their child spans cover, so the
self times of one thread's spans plus the root's own self time (the
*glue*) add up to the root's wall exactly.

A disabled tracer records nothing and wraps nothing: the untraced child
of the overhead measurement runs the very same harness code.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: Layer name of the root span; its self time is reported as ``glue_s``.
GLUE = "glue"


class Tracer:
    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        # [name, layer, start, end, parent index or None, on main thread]
        self._spans: list[list] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack()
        index = len(self._spans)
        self._spans.append([
            name, layer, time.perf_counter(), None,
            stack[-1] if stack else None,
            threading.get_ident() == self._main,
        ])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._spans[index][3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        rename: Optional[Callable[[Any, tuple], str]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``rename(result, args)`` may refine the span's name once the
        call has returned (e.g. which path a run actually executed).
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if rename is not None:
                tracer._spans[index][0] = rename(result, args)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def stop(self) -> None:
        """Put every wrapped attribute back; spans stay for accounting.

        Called as soon as the traced section ends, so the probes that
        follow in the same child run the program's unwrapped functions
        and add nothing to the section's spans.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- accounting ---------------------------------------------------
    def spans(self) -> list[dict]:
        return [
            {
                "name": name, "layer": layer, "start": start, "end": end,
                "parent": parent, "workload": self.workload,
            }
            for name, layer, start, end, parent, _ in self._spans
        ]

    def _self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _, _ in self._spans]
        for _, _, start, end, parent, _ in self._spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer over the main thread's spans."""
        totals: dict[str, float] = {}
        for span, own in zip(self._spans, self._self_times()):
            if span[5]:
                totals[span[1]] = totals.get(span[1], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name`` (any thread)."""
        return [
            end - start
            for span_name, _, start, end, _, _ in self._spans
            if span_name == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))
