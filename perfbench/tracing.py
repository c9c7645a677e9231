"""Span recording from outside the program: wrappers around layer entry points.

A :class:`Recorder` replaces a function where its caller looks it up (a
class attribute or a module global) with a wrapper that records one span
per call: ``(span_id, parent_id, name, thread, start_ns, end_ns, cpu_ns,
calls, count)``.  The parent is the innermost open span on the same thread, so
a span's *self time* is its duration minus the durations of its
children.  Spans stay in memory and are written out once, at exit.

Three kinds of callable are wrapped:

* plain functions — one span per call;
* coroutine functions — one span per *step* (each resumption between two
  suspensions), so self time counts only the coroutine's own execution,
  never the time it sat awaiting; the whole call's wall time is kept as
  a separate, parentless ``call/<name>`` record;
* generator functions — one span per ``next()``.

Each span carries both wall (``perf_counter_ns``) and thread CPU
(``thread_time_ns``) durations.  The clock is ``CLOCK_MONOTONIC`` on
Linux, shared by every process on the host, so spans recorded in the
collector line up with the generator's phase boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import types
from time import perf_counter_ns, thread_time_ns

import numpy as np

#: Column order of the written span table.
COLUMNS = (
    "span", "parent", "name", "thread", "start", "end", "cpu", "calls", "count"
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.wrapped: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` (optional) gives the work count
        stored on the span (reports, cells, ...); without it a call
        counts 1.  Coroutine and generator functions are detected and
        timed per step.
        """
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if inspect.iscoroutinefunction(func):
            wrapper = self._coroutine_wrapper(func, name)
        elif inspect.isgeneratorfunction(func):
            wrapper = self._generator_wrapper(func, name)
        else:
            wrapper = self._function_wrapper(func, name, count)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        elif isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attr, wrapper)
        self.wrapped.append((owner, attr, raw))

    def wrap_everywhere(self, func, name: str, count=None, prefix: str = "repro"):
        """Wrap ``func`` in every loaded ``prefix.*`` module that binds it
        as a global (``from x import func`` copies the binding)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.wrap(module, attr, name, count)

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self.wrapped):
            setattr(owner, attr, raw)
        self.wrapped.clear()

    def _function_wrapper(self, func, name: str, count):
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            opened = recorder._open()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                n = 1 if count is None else count(args, kwargs, result)
                recorder._close(opened, nid, 1, n)

        return wrapper

    def _coroutine_wrapper(self, func, name: str):
        nid = self.name_id(name)
        call_nid = self.name_id("call/" + name)
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return _drive(recorder, func(*args, **kwargs), nid, call_nid)

        return wrapper

    def _generator_wrapper(self, func, name: str):
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return _step_generator(recorder, func(*args, **kwargs), nid)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, self.name_id(name), 1, 1)

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return stack, sid, parent, thread_time_ns(), perf_counter_ns()

    def _close(self, opened, nid: int, calls: int, count: int) -> None:
        t1 = perf_counter_ns()
        c1 = thread_time_ns()
        stack, sid, parent, c0, t0 = opened
        stack.pop()
        self.records.append(
            (sid, parent, nid, threading.get_ident(), t0, t1, c1 - c0, calls, count)
        )

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def table(self) -> dict:
        """The recorded spans as numpy columns (plus the name table)."""
        rows = np.array(self.records, dtype=np.int64).reshape(-1, len(COLUMNS))
        out = {col: rows[:, i] for i, col in enumerate(COLUMNS)}
        out["names"] = np.array(self.names)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.table())


@types.coroutine
def _drive(recorder: Recorder, coro, nid: int, call_nid: int):
    """Run ``coro`` to completion, one span per step (see module doc)."""
    t_call = perf_counter_ns()
    value, error = None, None
    first = 1
    try:
        while True:
            opened = recorder._open()
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder._close(opened, nid, first, first)
            first = 0
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into coro
                value, error = None, exc
    finally:
        recorder.records.append(
            (0, 0, call_nid, threading.get_ident(), t_call, perf_counter_ns(), 0, 1, 1)
        )


def _step_generator(recorder: Recorder, gen, nid: int):
    """Re-yield ``gen``'s items, one span per ``next()``."""
    first = 1
    while True:
        opened = recorder._open()
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            recorder._close(opened, nid, first, first)
        first = 0
        yield item


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def load(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def layer_totals(table: dict, window=None) -> dict:
    """Per span name: calls, count, total/self wall and CPU seconds.

    ``window=(start_ns, end_ns)`` keeps only spans that start inside it.
    Self time subtracts the children's durations (same-thread nesting
    guarantees a child lies inside its parent).  ``call/<name>`` records
    (whole coroutine calls) carry no parent/child links and count wall
    time only.
    """
    names = list(table["names"])
    span, parent = table["span"], table["parent"]
    start, end, cpu = table["start"], table["end"], table["cpu"]
    calls, count, name = table["calls"], table["count"], table["name"]
    keep = np.ones(span.size, dtype=bool)
    if window is not None:
        keep = (start >= window[0]) & (start < window[1])
    wall = (end - start).astype(np.float64)
    cpu = cpu.astype(np.float64)
    child_wall = np.zeros(span.size)
    child_cpu = np.zeros(span.size)
    linked = np.flatnonzero(span > 0)
    by_id = linked[np.argsort(span[linked])]
    sorted_ids = span[by_id]
    children = np.flatnonzero((span > 0) & (parent > 0))
    pos = np.searchsorted(sorted_ids, parent[children])
    found = pos < sorted_ids.size
    found[found] = sorted_ids[pos[found]] == parent[children[found]]
    parents = by_id[pos[found]]
    np.add.at(child_wall, parents, wall[children[found]])
    np.add.at(child_cpu, parents, cpu[children[found]])
    out = {}
    for nid, label in enumerate(names):
        rows = keep & (name == nid)
        if not rows.any():
            continue
        out[str(label)] = {
            "calls": int(calls[rows].sum()),
            "count": int(count[rows].sum()),
            "wall_s": float(wall[rows].sum()) / 1e9,
            "cpu_s": float(cpu[rows].sum()) / 1e9,
            "self_wall_s": float((wall[rows] - child_wall[rows]).sum()) / 1e9,
            "self_cpu_s": float((cpu[rows] - child_cpu[rows]).sum()) / 1e9,
            "spans": int(rows.sum()),
        }
    return out
