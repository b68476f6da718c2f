"""Spans recorded from outside the program, by wrapping its public functions.

`Tracer.install()` replaces every public function of the measured modules,
and `SparseMatrix.__init__`, with a wrapper that records a span (name, start,
end, parent) and, through a hook, the counts that belong to that boundary.
Each wrapper is patched in wherever its caller looks the name up: in every
loaded `dropgcn` module that holds the original object. Leaving the context
puts every original back, so untraced and traced runs can share a process.

Spans stay in memory; `write_spans` writes them out once the run is over.
"""

import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

PACKAGE = "dropgcn"
MODULES = ("graph", "sparsemat", "dropedge", "autodiff", "models", "optim",
           "training", "spectral")

NAME, START, END, PARENT, ATTRS = range(5)


def public_functions(module):
    """(name, function) pairs a module defines and does not mark private."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, attrs];
    parent is the index of the enclosing span, -1 at the top. A hook may
    rename its span; `calls` counts calls under the wrapped name."""

    def __init__(self, hooks=None):
        self.spans = []
        self.hooks = hooks or {}
        self.calls = Counter()
        self._stack = []

    def wrap(self, name, fn):
        pre, post = self.hooks.get(name, (None, None))
        spans, stack, calls = self.spans, self._stack, self.calls

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if pre is not None:
                pre(span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if post is not None:
                post(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Patch every public function of MODULES, and SparseMatrix
        construction, for the duration of the block."""
        restore = []
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for short in MODULES:
                module = sys.modules[f"{PACKAGE}.{short}"]
                for fname, fn in public_functions(module):
                    wrapper = self.wrap(f"{short}.{fname}", fn)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                restore.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
            cls = sys.modules[f"{PACKAGE}.sparsemat"].SparseMatrix
            restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap("sparsemat.SparseMatrix", cls.__init__)
            yield self
        finally:
            for obj, attr, original in reversed(restore):
                setattr(obj, attr, original)

    def write_spans(self, path):
        """One JSON object per span: name, start, end (seconds), parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


class Totals:
    """Per-name call counts, inclusive time and self time, in seconds.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on one thread.
    """

    def __init__(self, spans):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]

    def count(self, name):
        return self.calls.get(name, 0)

    def ms(self, name):
        return 1000.0 * self.total.get(name, 0.0)

    def self_ms(self, name):
        return 1000.0 * self.self_time.get(name, 0.0)
