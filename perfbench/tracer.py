"""Span tracer that instruments the qbsqp package from outside.

`Tracer.install` replaces every public function and public method of the
package's modules with a wrapper that opens a span.  Spans live on a stack
per thread: when a span closes, its duration is added to the child time of
the span below it on the same thread, so self time (duration minus child
time) stays correct while the sweep runs cells on worker threads.

Spans are aggregated in memory by (name, parent name); the few coarse spans
listed in `keep` are also kept whole (start, end, thread) for the
orchestration metrics.  Counters are recorded at the same boundaries by
hooks.  Nothing under `src/` is modified: the wrappers are installed by
rebinding module and class attributes after import.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("models", "nlp", "schur", "sqp", "qschur", "qsvt", "blockenc",
          "experiments", "config", "cli")

# Names of third-party routines that the package imports into a module
# namespace and that are worth a span of their own.
FOREIGN = {
    "schur": ("cho_factor", "eigvalsh"),
    "nlp": ("cho_factor",),
}


class _ThreadData:
    def __init__(self):
        self.stack: list[list] = []
        self.calls: dict[tuple, int] = defaultdict(int)
        self.total: dict[tuple, float] = defaultdict(float)
        self.self_time: dict[tuple, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.kept: list[tuple] = []


class Tracer:
    def __init__(self, keep=()):
        self._keep = frozenset(keep)
        self._local = threading.local()
        self._threads: list[_ThreadData] = []
        self._lock = threading.Lock()
        self._minima: dict[str, float] = {}
        self._maxima: dict[str, float] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        with self._lock:
            self._threads.clear()
            self._minima.clear()
            self._maxima.clear()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------
    def _data(self) -> _ThreadData:
        data = getattr(self._local, "data", None)
        if data is None:
            data = self._local.data = _ThreadData()
            with self._lock:
                self._threads.append(data)
        return data

    def count(self, key: str, amount: float = 1.0) -> None:
        self._data().counts[key] += amount

    def observe_min(self, key: str, value: float) -> None:
        with self._lock:
            self._minima[key] = min(value, self._minima.get(key, value))

    def observe_max(self, key: str, value: float) -> None:
        with self._lock:
            self._maxima[key] = max(value, self._maxima.get(key, value))

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return `fn` wrapped in a span.

        `pre(args, kwargs)` returns the (args, kwargs) to call with, and
        `post(args, kwargs, result)` returns the result to hand back; both
        run inside the span.
        """
        clock = time.perf_counter
        keep = name in self._keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            data = self._data()
            stack = data.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if pre is not None:
                    args, kwargs = pre(args, kwargs)
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = (name, parent)
                data.calls[key] += 1
                data.total[key] += dur
                data.self_time[key] += dur - frame[1]
                if keep:
                    data.kept.append((name, parent, threading.get_ident(), t0, t1))

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap the public functions and methods of every layer module.

        `hooks` maps a span name to a dict of `pre`/`post` hooks (see
        `wrap`).  Every module attribute bound to a wrapped function is
        rebound, so names imported with `from .x import f` are traced too.
        """
        hooks = hooks or {}
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj,
                                                  **hooks.get(name, {}))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth,
                                self.wrap(name, fn, **hooks.get(name, {})))
            for attr in FOREIGN.get(layer, ()):
                name = f"{layer}.{attr}"
                setattr(mod, attr, self.wrap(name, getattr(mod, attr),
                                             **hooks.get(name, {})))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not attr.startswith("__"):
                    setattr(mod, attr, replaced[id(obj)])

    # -- results -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merge the per-thread records into plain JSON-ready data."""
        spans: dict[tuple, list] = {}
        counts: dict[str, float] = defaultdict(float)
        kept = []
        for data in self._threads:
            for key, n in data.calls.items():
                entry = spans.setdefault(key, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += data.total[key]
                entry[2] += data.self_time[key]
            for key, value in data.counts.items():
                counts[key] += value
            kept.extend(data.kept)
        return {
            "spans": [{"name": k[0], "parent": k[1], "calls": v[0],
                       "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(spans.items(), key=lambda kv: str(kv[0]))],
            "counts": dict(counts),
            "minima": dict(self._minima),
            "maxima": dict(self._maxima),
            "kept": [{"name": k[0], "parent": k[1], "thread": k[2],
                      "start": k[3], "end": k[4]} for k in kept],
        }
