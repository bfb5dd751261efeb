"""In-memory span recording for the benchmark's traced run.

Layers are timed from outside: :class:`Patcher` swaps a public function
or method of a ``repro`` module for a wrapper that opens a span on
entry and closes it on exit, and restores the original afterwards.
Nothing inside ``src/repro`` is changed, and ``repro.obs`` stays off.

Every span updates its layer's aggregate as it closes — call count,
busy time, and self time (busy time minus the time covered by direct
child spans on the same thread) — so the numbers are exact however many
spans run.  While :attr:`SpanRecorder.tag` is set, each closing span
also counts towards ``<tag>/<layer>``, so one phase of a workload can
be read apart from the rest.  Raw spans are also kept for the Chrome trace, up to
``keep_per_layer`` per layer, and written once by
:meth:`SpanRecorder.chrome_trace` when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class LayerStats:
    """Aggregates of one layer: spans closed, busy and self seconds."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Records nested spans per thread and aggregates them per layer.

    Args:
        clock: Monotonic clock in seconds (tests pass a fake one).
        keep_per_layer: Raw spans kept per layer for the Chrome trace;
            aggregates always cover every span.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_per_layer: int = 2000,
    ) -> None:
        self.clock = clock
        self.keep_per_layer = keep_per_layer
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self.tag = ""
        self.epoch = clock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> None:
        """Open a span of ``layer`` on the calling thread."""
        span_id = next(self._ids)
        # [layer, start, time covered by direct children, span id]
        self._stack().append([layer, self.clock(), 0.0, span_id])

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        stack = self._stack()
        layer, start, child_s, span_id = stack.pop()
        duration = self.clock() - start
        if stack:
            stack[-1][2] += duration
        for key in (layer, f"{self.tag}/{layer}") if self.tag else (layer,):
            stats = self.layers.get(key)
            if stats is None:
                stats = self.layers[key] = LayerStats()
            stats.calls += 1
            stats.busy_s += duration
            stats.self_s += duration - child_s
        if self.layers[layer].calls <= self.keep_per_layer:
            self.spans.append({
                "name": layer,
                "id": span_id,
                "parent": stack[-1][3] if stack else 0,
                "tid": threading.get_ident(),
                "start_s": start - self.epoch,
                "dur_s": duration,
            })
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a plain counter (work done, not time)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str | Callable[[], str],
        on_result: Callable[[Any, tuple, dict], None] | None = None,
        before: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``layer`` may be resolved per call.

        ``before`` sees the call's arguments before the span opens;
        ``on_result`` sees the result and the arguments after it closes.
        """
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            self.begin(layer() if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def snapshot(self) -> dict[str, Any]:
        """Aggregates as plain data (how a child process hands them back)."""
        return {
            "layers": {
                name: [s.calls, s.busy_s, s.self_s]
                for name, s in self.layers.items()
            },
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Add another recorder's :meth:`snapshot` into this one."""
        for name, (calls, busy_s, self_s) in snapshot["layers"].items():
            stats = self.layers.setdefault(name, LayerStats())
            stats.calls += calls
            stats.busy_s += busy_s
            stats.self_s += self_s
        for name, value in snapshot["counters"].items():
            self.count(name, value)

    def chrome_trace(self) -> list[dict[str, Any]]:
        """Kept spans as Chrome trace-event ``X`` records (microseconds)."""
        pid = os.getpid()
        return [
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": span["tid"],
                "ts": round(span["start_s"] * 1e6, 3),
                "dur": round(span["dur_s"] * 1e6, 3),
                "args": {"id": span["id"], "parent": span["parent"]},
            }
            for span in self.spans
        ]


def self_times(spans: list[tuple[int, int, float, float]]) -> dict[int, float]:
    """Self time per span from ``(id, parent_id, start, end)`` tuples.

    The reference for :class:`SpanRecorder`'s running aggregate: a
    span's self time is its duration minus the durations of the spans
    whose parent it is (children of one span never overlap, because
    they run one after another on the parent's thread).
    """
    own = {span_id: end - start for span_id, _, start, end in spans}
    for _, parent, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


class Patcher:
    """Installs recorder wrappers on module and class attributes.

    A target that does not exist (a later version renamed it) is skipped
    and listed in :attr:`missing`; the benchmark fails its checks on any
    missing target rather than report the layer as zero.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def method(
        self,
        cls: Any,
        attr: str,
        layer: str | Callable[[], str],
        on_result: Callable[[Any, tuple, dict], None] | None = None,
        subclasses: bool = False,
        skip: tuple[type, ...] = (),
    ) -> None:
        """Wrap ``cls.attr`` (and each subclass's own override)."""
        classes = [cls] + (_all_subclasses(cls) if subclasses else [])
        wrapped = False
        for klass in classes:
            if (skip and issubclass(klass, skip)) or attr not in vars(klass):
                continue
            original = vars(klass)[attr]
            if not callable(original):
                continue
            self.replace(klass, attr, self.recorder.wrap(original, layer,
                                                      on_result))
            wrapped = True
        if not wrapped:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")

    def function(
        self,
        module: Any,
        name: str,
        layer: str,
        before: Callable[..., None] | None = None,
    ) -> None:
        """Wrap ``module.name`` everywhere a ``repro`` module bound it.

        Modules that did ``from module import name`` hold their own
        reference, so each binding of the same object is replaced.
        ``before`` is called with each call's arguments before its span.
        """
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapper = self.recorder.wrap(original, layer, before=before)
        for mod_name, mod in list(sys.modules.items()):
            if (
                (mod_name == "repro" or mod_name.startswith("repro."))
                and getattr(mod, name, None) is original
            ):
                self.replace(mod, name, wrapper)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


def write_chrome_trace(path: str, events: list[dict[str, Any]]) -> None:
    """Write trace events as one Chrome trace JSON document."""
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
