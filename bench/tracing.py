"""Spans around reeseq's public functions, recorded from outside the package.

`instrument` wraps every public module-level function of every reeseq
module and rebinds the wrapper at every place the function object is bound:
`from .graphs import components` copies the binding into reeseq.decide, so
wrapping only reeseq.graphs.components would miss the calls decide makes.
Spans live in flat arrays while the run lasts and are written out once at
the end; self times and call counts are derived from them.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array

from harness import failure_name
from refeval import NEGATIVE_KINDS

PACKAGE = "reeseq"
OK, NEGATIVE, RAISED = 0, 1, 2


class Tracer:
    """Flat, in-memory span store: name, start, end, parent, request id.
    A span that raised also has the harness.FAILURES name of its exception
    in `errors`; `rees_errors` is the reeseq.errors module to classify by."""

    def __init__(self, rees_errors):
        self.rees_errors = rees_errors
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rid = array("l")
        self.outcome = array("B")
        self.errors: dict[int, str] = {}
        self._stack = [-1]
        self.request = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.rid.append(self.request)
        self.end.append(0.0)
        self.outcome.append(OK)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, outcome: int) -> None:
        self.end[idx] = time.perf_counter()
        self.outcome[idx] = outcome
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, request: int):
        """The root span of one operation; spans inside carry its request."""
        self.request = request
        idx = self.open(self.name_id(name))
        try:
            yield
        except BaseException:
            self.close(idx, RAISED)
            raise
        else:
            self.close(idx, OK)
        finally:
            self.request = -1

    def __len__(self):
        return len(self.start)

    def write(self, path) -> None:
        """Tab-separated spans: name, start_s, end_s, parent, request."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.name[k]]}\t{self.start[k]:.9f}\t"
                         f"{self.end[k]:.9f}\t{self.parent[k]}\t"
                         f"{self.rid[k]}\n")


def _outcome(result) -> int:
    kind = getattr(result, "kind", None)
    if kind is not None:
        return NEGATIVE if kind in NEGATIVE_KINDS else OK
    return OK if result is None else NEGATIVE


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.errors[idx] = failure_name(tracer.rees_errors, exc)
            tracer.close(idx, RAISED)
            raise
        tracer.close(idx, _outcome(result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def instrument(tracer: Tracer):
    """Wrap reeseq's public functions; returns a function that undoes it."""
    mods = {n: m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
    wrappers: dict[int, tuple] = {}
    for mname, mod in mods.items():
        if mname == PACKAGE:
            continue
        short = mname[len(PACKAGE) + 1:]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mname):
                continue
            wrappers[id(obj)] = (obj, _wrap(tracer, f"{short}.{attr}", obj))
    undo = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))

    def restore():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)
    return restore


# ---------------------------------------------------------------------------
# Derived figures

class SpanStats:
    """Call counts and self times per span name, plus the ancestry queries
    the layer metrics need."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer)
        child = [0.0] * n
        for k in range(n):
            p = tracer.parent[k]
            if p >= 0:
                child[p] += tracer.end[k] - tracer.start[k]
        self.self_s = [tracer.end[k] - tracer.start[k] - child[k]
                       for k in range(n)]
        self.calls: dict[str, int] = {}
        self.self_ms: dict[str, float] = {}
        for k in range(n):
            name = tracer.names[tracer.name[k]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ms[name] = self.self_ms.get(name, 0.0) + self.self_s[k] * 1e3

    def name_of(self, k: int) -> str:
        return self.t.names[self.t.name[k]]

    def spans(self, pred):
        return [k for k in range(len(self.t)) if pred(self.name_of(k))]

    def has_ancestor(self, k: int, names) -> bool:
        p = self.t.parent[k]
        while p >= 0:
            if self.name_of(p) in names:
                return True
            p = self.t.parent[p]
        return False
