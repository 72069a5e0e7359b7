"""Spans and per-layer self time for the traced benchmark run.

The program is timed from outside: `install` rebinds each target function,
wherever a negdep module or class holds it, to a wrapper that opens a span
around the call.  Spans are kept in flat arrays while the run lasts and are
written out once it ends.  Self time is computed from the recorded spans
afterwards, so the arithmetic can be checked on a hand-built tree.
"""

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ROOT = "bench"


class SpanLog:
    """Spans (name, start, end, parent, operation id) plus per-name counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.calls = {}
        self.counts = {}
        self._stack = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so covered time is never counted twice.
    """
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        kids = children.get(i)
        if kids:
            cur_lo = cur_hi = None
            for lo, hi in sorted((max(start[c], s), min(end[c], e)) for c in kids):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def self_time_by_name(log: SpanLog) -> dict:
    totals = {}
    for nid, t in zip(log.name, self_times(log.start, log.end, log.parent)):
        name = log.names[nid]
        totals[name] = totals.get(name, 0.0) + t
    return totals


def root_durations(log: SpanLog) -> list:
    return [e - s for s, e, p in zip(log.start, log.end, log.parent) if p < 0]


# -- wrappers -------------------------------------------------------------------


@dataclass
class Target:
    """One timed entry point: `owner` is a module name, `attr` an attribute
    path inside it ("f" or "Class.method").  `name` is the span name, or a
    function of (args, kwargs) that picks it.  `before(args, kwargs)` returns
    state handed to `after(state, args, kwargs, result)`."""

    owner: str
    attr: str
    name: object
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    generator: bool = False


def _wrap(log: SpanLog, t: Target, orig, refused_exc):
    pick = t.name if callable(t.name) else (lambda a, k, n=t.name: n)

    def spanned(name, call, args, kwargs, after):
        log.calls[name] = log.calls.get(name, 0) + 1
        state = t.before(args, kwargs) if t.before else None
        idx = log.open(name)
        try:
            result = call(*args, **kwargs)
        except refused_exc:
            log.count("analyzer.refused")
            raise
        finally:
            log.close(idx)
        if after:
            after(state, args, kwargs, result)
        return result

    if not t.generator:
        def wrapper(*args, **kwargs):
            return spanned(pick(args, kwargs), orig, args, kwargs, t.after)
        return wrapper

    def timed_iter(name, it):
        # one span per resume: the consumer's work between rows is not ours
        while True:
            idx = log.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            except refused_exc:
                log.count("analyzer.refused")
                raise
            finally:
                log.close(idx)
            if t.after:
                t.after(None, (), {}, item)
            yield item

    def gen_wrapper(*args, **kwargs):
        name = pick(args, kwargs)
        it = spanned(name, orig, args, kwargs, None)
        return timed_iter(name, it)

    return gen_wrapper


def install(log: SpanLog, targets, refused_exc=()) -> list:
    """Rebind every target to its wrapper; returns the undo list.

    A target missing from the program is skipped, so its metrics read 0
    instead of the run failing.
    """
    undo = []
    modules = [m for k, m in sys.modules.items() if k == "negdep" or k.startswith("negdep.")]
    for t in targets:
        mod = sys.modules.get(t.owner)
        if mod is None:
            continue
        head, _, method = t.attr.partition(".")
        holder = getattr(mod, head, None)
        if holder is None:
            continue
        if method:
            orig = holder.__dict__.get(method)
            if orig is None:
                continue
            setattr(holder, method, _wrap(log, t, orig, refused_exc))
            undo.append((holder, method, orig))
            continue
        wrapper = _wrap(log, t, holder, refused_exc)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is holder:
                    setattr(m, key, wrapper)
                    undo.append((m, key, holder))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)
