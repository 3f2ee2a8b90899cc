"""Spans around the public functions of ``quatprop``, recorded from outside.

A :class:`Tracer` wraps each listed function and, while installed, puts the
wrapper in place of every module binding of that function: the defining
module, modules that imported it by name and the package namespace. Methods
are wrapped on their class. Spans (name, start, end, parent) are kept in
memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, qualified name) of every traced function, in the order reported
TRACED = (
    ("cli", "cmd_generate"), ("cli", "cmd_classify"),
    ("cli", "cmd_rotate"), ("cli", "cmd_project"),
    ("gaussian", "write_sample_csv"), ("gaussian", "read_sample_csv"),
    ("gaussian", "covariance_from_params"), ("gaussian", "convert"),
    ("gaussian", "sample"), ("gaussian", "gaussian_pdf"),
    ("gaussian", "pdf_1mu_proper"),
    ("estimation", "classify"), ("estimation", "covariance_faces"),
    ("estimation", "complementary_covariances"),
    ("rotations", "double_rotation"), ("rotations", "DoubleRotation.apply_rows"),
    ("qarray", "mul"), ("core", "Quaternion.__mul__"),
)

# extra counts: bytes of the CSV file written or read, quaternion products
BYTES = {"gaussian.write_sample_csv", "gaussian.read_sample_csv"}
PRODUCTS = "qarray.mul"
OP = "op"  # the benchmark's own span around one operation


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for module, qual in TRACED:
        name = f"{module}.{qual}"
        out += [(f"{name}.calls", "calls/op"), (f"{name}.self_s", "s/op")]
        if name in BYTES:
            out.append((f"{name}.bytes", "B/op"))
        if name == PRODUCTS:
            out.append((f"{name}.products", "products/op"))
    return out + [("trace.overhead_pct", "%")]


PACKAGE = "quatprop"


class Tracer:
    def __init__(self):
        self.names = [OP] + [f"{m}.{q}" for m, q in TRACED]
        self.spans = []  # [name index, start ns, end ns, parent index]
        self.counts = {}  # name -> bytes or products
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for idx, (module, qual) in enumerate(TRACED, start=1):
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original)
            if path:  # a method: patch the class only
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, idx, fn):
        spans, stack, name = self.spans, self._stack, self.names[idx]
        clock = time.perf_counter_ns
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "gaussian.read_sample_csv":
                counts[name] = counts.get(name, 0) + _size(args, kwargs)
            here = len(spans)
            span = [idx, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(here)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == PRODUCTS:
                counts[name] = counts.get(name, 0) + result.size // 4
            elif name == "gaussian.write_sample_csv":
                counts[name] = counts.get(name, 0) + _size(args, kwargs)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def op(self, fn, *args):
        """Run fn(*args) traced, inside an operation span.

        Returns the result and the span's length in seconds."""
        span = [0, 0, 0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.install()
        try:
            span[1] = time.perf_counter_ns()
            result = fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self.uninstall()
            self._stack.pop()
        return result, (span[2] - span[1]) * 1e-9

    def summary(self, ops):
        """Per-operation calls, self seconds and counts of every traced
        function. Self time is a span's duration minus its direct children's."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_ns[span[0]] += span[2] - span[1] - child[i]
        out = {}
        for idx, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[idx] / ops
            out[f"{name}.self_s"] = self_ns[idx] * 1e-9 / ops
            if name in BYTES or name == PRODUCTS:
                key = "products" if name == PRODUCTS else "bytes"
                out[f"{name}.{key}"] = self.counts.get(name, 0) / ops
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh)


def _size(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0
