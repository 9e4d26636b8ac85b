"""In-memory span recorder for the traced benchmark run.

Timing wrappers are installed on the names callers actually look up:
``sl_family`` does ``from .eigen import dense_eigenvalues``, so wrapping
``hyperlap.eigen.dense_eigenvalues`` alone would miss every sweep call.
``install`` therefore replaces the original function object wherever a
loaded ``hyperlap`` module binds it.  A target missing from the library
is skipped, so its metrics read 0 instead of breaking the run.

Each thread keeps its own stack of open spans.  A span opened on a thread
with an empty stack (a ``ThreadPoolExecutor`` worker inside ``sweep``)
takes the open pool-owning span as its parent.
"""

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class Recorder:
    """Spans as [id, parent, name, thread, start, end, attrs] lists."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._pool_parent = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, attrs=None, pool_owner=False):
        """Wrap fn in a span; attrs(args, kwargs, result) gives span attributes."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else rec._pool_parent
            sid = next(rec._ids)
            stack.append(sid)
            if pool_owner:
                outer, rec._pool_parent = rec._pool_parent, sid
            info = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool_owner:
                    rec._pool_parent = outer
                rec.spans.append(
                    [sid, parent, name, threading.get_ident(), start, end, info]
                )
            if attrs is not None:
                info.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn to count calls only, for functions called ~10^6 times a job."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec._count_lock:
                rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        """Patch each (module, attribute, span name, attrs, mode) target.

        mode is "span", "pool" (a span that parents pool-thread spans) or
        "count".  Class attributes are given as "Class.method".
        """
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "hyperlap" or n.startswith("hyperlap."))]
        for modname, attr, name, attrs, mode in targets:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    continue
                self._patch(cls, meth, orig, self._wrap(name, orig, attrs, mode))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, attrs, mode)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)

    def _wrap(self, name, fn, attrs, mode):
        if mode == "count":
            return self.counted(name, fn)
        return self.timed(name, fn, attrs, pool_owner=(mode == "pool"))

    def _patch(self, obj, key, orig, wrapped):
        setattr(obj, key, wrapped)
        self._patches.append((obj, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    Children can run on several threads at once (pool workers under
    ``sweep``), so the covered part is the union of their intervals
    clipped to the parent, not their sum.
    """
    children = defaultdict(list)
    for sid, parent, _name, _tid, start, end, _info in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _tid, start, end, _info in spans:
        covered = 0.0
        lo = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, lo)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                lo = c_end
        out[sid] = (end - start) - covered
    return out


def descendants(spans, root_id):
    """Ids of every span below root_id."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span[0])
    out, todo = set(), [root_id]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.add(child)
            todo.append(child)
    return out
