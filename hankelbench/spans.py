"""Spans recorded around the package's public functions, from outside.

``Tracer.install`` wraps every public function of the traced modules in
each ``hankeleig.*`` namespace that binds it, found by identity over the
module dicts, so ``solver.hankel_xm`` and ``cli.multistart`` are caught as
well as the defining names.  ``uninstall`` restores the originals.  A span
is ``(id, name, start, end, parent, call, ok, tag)``.  The parent comes
from a thread-local stack; a span opened on a thread with an empty stack
(a multistart pool worker) takes the innermost open span of the thread
that installed the tracer, which is blocked in the fan-out at that time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("generators", "fft_products", "objective", "solver")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []
        self._local.stack = self._home
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home
            parent = home[-1] if home else None
        sid = next(self._ids)
        stack.append(sid)
        ok = False
        ret = None
        start = time.perf_counter()
        try:
            ret = fn(*args, **kwargs)
            ok = True
            return ret
        finally:
            end = time.perf_counter()
            stack.pop()
            tag = None
            if ok and name == "solver.solve":
                tag = getattr(getattr(ret, "termination", None), "value", None)
            self.spans.append((sid, name, start, end, parent, self.call, ok, tag))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> list[str]:
        """Wrap the public functions; returns the span names installed."""
        mods = [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == "hankeleig"
                                        or key.startswith("hankeleig."))]
        names = []
        for layer in TRACED_MODULES:
            mod = sys.modules.get(f"hankeleig.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                names.append(f"{layer}.{attr}")
                for target in mods:
                    for key, val in list(vars(target).items()):
                        if val is fn:
                            self._patches.append((target, key, fn))
                            setattr(target, key, wrapper)
        return names

    def uninstall(self) -> None:
        while self._patches:
            target, key, fn = self._patches.pop()
            setattr(target, key, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []))
            for sid, _name, start, end, *_ in spans}
