"""Span recorder for the benchmark's traced run.

A Tracer wraps each layer's function under the name its caller looks it
up by (``cli.max_BA_matching``, ``sampling._block_uniforms``, ...) and
records spans (name, start, end, parent) in memory. Nothing is written
until the run ends. A name that no longer exists is reported as absent;
the run goes on without it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped name: ``owner`` is a module or class, ``attr`` the
    attribute its caller reads. A counting layer records calls only; a
    timed one also records a span. ``extra`` turns (args, result) into a
    quantity summed under ``<name>.<extra_name>``."""

    name: str
    owner: Callable[[], Any]
    attr: str
    timed: bool = True
    extra_name: str = ""
    extra: Callable[[tuple, Any], float] | None = None


class Tracer:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, list[int]] = {}
        self.extras: Counter[str] = Counter()
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Swap each layer's name for a recording wrapper."""
        self.absent = []
        for layer in self.layers:
            try:
                owner = layer.owner()
                original = getattr(owner, layer.attr)
            except AttributeError:
                self.absent.append(f"{layer.name} ({layer.attr})")
                continue
            self._saved.append((owner, layer.attr, original))
            setattr(owner, layer.attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn):
        # A one-element list per name keeps the per-call cost of counting
        # low: strong_on_mask is called ~800k times per exact operation.
        calls = self.calls.setdefault(layer.name, [0])
        name = layer.name

        if not layer.timed:
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        extras = self.extras
        stack_of = self._stack

        def traced(*args, **kwargs):
            calls[0] += 1
            stack = stack_of()
            # A layer re-entered through a second wrapped name (json.dump inside
            # write_sweep_report) keeps its outer span only, so busy time is
            # not counted twice.
            if any(open_name == name for open_name, _ in stack):
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if layer.extra is not None:
                try:
                    extras[f"{name}.{layer.extra_name}"] += layer.extra(args, result)
                except (AttributeError, TypeError, IndexError):
                    self.unmeasured.add(f"{name}.{layer.extra_name}")
            return result

        return traced

    def mark(self) -> tuple[int, dict[str, int], Counter]:
        """A snapshot to take the spans and counts recorded after it."""
        return (len(self.spans), {name: cell[0] for name, cell in self.calls.items()},
                Counter(self.extras))

    def summary(self, since: tuple[int, dict[str, int], Counter]) -> dict[str, float]:
        """Busy and self seconds per name, calls and extras since ``since``.

        Busy time is the sum of a name's span durations; self time is busy
        time minus the durations of its direct child spans.
        """
        first, calls0, extras0 = since
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans):
            out[f"{name}.busy"] = out.get(f"{name}.busy", 0.0) + (end - start)
            out[f"{name}.self"] = out.get(f"{name}.self", 0.0) + (end - start - child_time[i])
        for name, cell in self.calls.items():
            out[f"{name}.calls"] = float(cell[0] - calls0.get(name, 0))
        for name, value in (self.extras - extras0).items():
            out[name] = float(value)
        return out
