"""In-memory span recording around calls into the program's functions.

The benchmark wraps the program's classes and module functions at run
time, from its own files; nothing under ``src/`` knows it is traced.
Spans live in flat arrays until the run ends (~25 bytes each, so a few
million fit) and are aggregated only then.  Span times are process CPU
nanoseconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from measure import SpanTotals, self_times

Hook = Callable[..., None]


class SpanRecorder:
    """Records ``(name, parent, start, end)`` for every wrapped call.

    ``counts`` and ``maxima`` collect what hooks observe at the same
    boundaries (outcomes, sizes, sampled queue depths).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_names = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def clear(self) -> None:
        """Forget every span and count so far (call outside any span)."""
        if len(self._stack) != 1:
            raise RuntimeError("clear() inside an open span")
        for column in (self.span_names, self.parents, self.starts, self.ends):
            del column[:]
        self.counts.clear()
        self.maxima.clear()

    def sample_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def wrap(
        self,
        func: Callable,
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """``func`` recorded as a span named ``name``.

        ``before(recorder, args)`` runs inside the span before the call;
        ``after(recorder, args, result)`` after it, outside the span.
        """
        name_id = self.name_id(name)
        span_names, parents = self.span_names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        # CPU time, not wall: a span's self time then excludes the time the
        # process was descheduled, which a shared host makes noisy.
        clock = time.process_time_ns

        def wrapper(*args, **kwargs):
            index = len(starts)
            span_names.append(name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(index)
            try:
                if before is not None:
                    before(self, args)
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, func)

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def totals(self) -> Tuple[Dict[str, SpanTotals], int]:
        """Per-name totals and the time covered by root spans."""
        by_id, root_ns = self_times(
            self.span_names, self.parents, self.starts, self.ends
        )
        return {self.names[key]: value for key, value in by_id.items()}, root_ns

    def outermost_calls(self, prefix: str) -> int:
        """Spans named ``prefix...`` whose parent is not: calls into a
        layer from outside it, however deep it recurses internally."""
        inside = {
            index for index, name in enumerate(self.names) if name.startswith(prefix)
        }
        span_names, parents = self.span_names, self.parents
        return sum(
            1
            for index in range(len(span_names))
            if span_names[index] in inside
            and (parents[index] < 0 or span_names[parents[index]] not in inside)
        )


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for klass in _subclasses(sub):
            if klass not in found:
                found.append(klass)
    return found


class Instrumentation:
    """Installs recorder wrappers on the program and removes them again.

    A method target is wrapped on its class *and* on every loaded
    subclass that overrides it; a module-function target is replaced in
    every loaded ``repro`` module that imported it by name.  Install
    before the program builds its objects, so methods bound at
    construction (callbacks, gates) are the wrapped ones.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, target: str, name: str, before=None, after=None) -> None:
        """Wrap ``module:Class.attr``."""
        module_name, _, qualified = target.partition(":")
        class_name, _, attr = qualified.rpartition(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        patched = 0
        for cls in _subclasses(owner):
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self.recorder.wrap(original.__func__, name, before, after)
                )
            elif callable(original):
                replacement = self.recorder.wrap(original, name, before, after)
            else:
                raise TypeError(f"cannot wrap {cls.__name__}.{attr}: {original!r}")
            self._undo.append((cls, attr, original))
            setattr(cls, attr, replacement)
            patched += 1
        if not patched:
            raise AttributeError(f"{target} defines no {attr!r}")

    def function(self, target: str, name: str, before=None, after=None) -> None:
        """Wrap ``module:function`` wherever it was imported by name."""
        module_name, _, attr = target.partition(":")
        original = getattr(importlib.import_module(module_name), attr)
        replacement = self.recorder.wrap(original, name, before, after)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
