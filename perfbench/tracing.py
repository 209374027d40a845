"""Span tracing of staralg from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function with a wrapper that records a span.  Modules import functions by
name (``verify`` binds ``pinv`` and ``svd`` itself, ``cli`` binds
``run_suite``), so a wrapper only on the defining module would miss those
calls; the tracer therefore scans every loaded ``staralg`` module for the
same function object.  ``numpy.linalg.svd`` is wrapped too, as a counter
and timer rather than a span, so its time stays in the calling span.

A traced function is any function of a layer module that is public (in
``__all__``) or bound by another staralg module, plus the public methods of
the public classes of that module.  A span is
``[name, parent, start, end, svd_before, svd_after, attr, raised]``;
spans stay in memory and are written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("matcore", "starorder", "solvers", "chars", "genlab", "verify", "cli")

NAME, PARENT, START, END, SVD0, SVD1, ATTR, RAISED = range(8)


def _attr_for(name: str, args: tuple) -> str | None:
    """The span attribute the per-layer table needs: a suite name or a path."""
    if name == "verify.run_suite" and args:
        return str(args[0])
    if name == "cli.parse_matrix" and args and isinstance(args[0], (str, os.PathLike)):
        return os.fspath(args[0])
    if name == "cli.write_matrix" and args:
        return os.fspath(args[0])
    return None


class Tracer:
    """Records spans while ``active``; wrappers installed by ``install``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.svd_calls = 0
        self.svd_s = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, fn, name, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0,
               self.svd_calls, 0, _attr_for(name, args), False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            rec[SVD1] = self.svd_calls
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, name, args, kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions in every loaded staralg module."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "staralg" or k.startswith("staralg."))]
        bound_elsewhere = {id(value) for mod in mods for value in vars(mod).values()
                           if inspect.isfunction(value) and value.__module__ != mod.__name__}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"staralg.{layer}"]
            public = set(getattr(mod, "__all__", ()))
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    if attr in public or id(value) in bound_elsewhere:
                        wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and attr in public and value.__module__ == mod.__name__:
                    for m_name, method in vars(value).items():
                        if inspect.isfunction(method) and not m_name.startswith("_"):
                            self._set(value, m_name,
                                      self._wrap(method, f"{layer}.{attr}.{m_name}"))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        self._set(np.linalg, "svd", self._counting_svd(np.linalg.svd))

    def _counting_svd(self, svd):
        @functools.wraps(svd)
        def wrapper(*args, **kwargs):
            if not self.active:
                return svd(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return svd(*args, **kwargs)
            finally:
                self.svd_s += time.perf_counter() - t0
                self.svd_calls += 1

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write all spans as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "parent": s[PARENT], "start": s[START],
                                     "end": s[END], "svd": s[SVD1] - s[SVD0],
                                     "attr": s[ATTR], "raised": s[RAISED]}))
                fh.write("\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, wall_s: float, suite_names) -> dict[str, float]:
    """Aggregate the spans of one traced pass into the per-layer table.

    ``<layer>.calls`` counts entries into a layer (spans whose parent is in
    another layer or is the benchmark); ``<layer>.self_s`` sums span time
    minus the time covered by child spans.  ``wall_s`` is the traced pass's
    own wall time; what no root span covers is reported as unattributed.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    fn_calls: dict[str, int] = {}
    fn_s: dict[str, float] = {}
    fn_self_s: dict[str, float] = {}
    suite_s = dict.fromkeys(suite_names, 0.0)
    suite_svd = dict.fromkeys(suite_names, 0)
    raised = 0
    root_s = 0.0
    parse_s = parse_bytes = write_s = write_bytes = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = layer_of(name)
        if s[PARENT] < 0:
            root_s += dur
        if s[PARENT] < 0 or layer_of(spans[s[PARENT]][NAME]) != layer:
            calls[layer] += 1
            raised += layer == "solvers" and s[RAISED]
        self_s[layer] += dur - child_s[i]
        fn_calls[name] = fn_calls.get(name, 0) + 1
        fn_s[name] = fn_s.get(name, 0.0) + dur
        fn_self_s[name] = fn_self_s.get(name, 0.0) + dur - child_s[i]
        if s[ATTR] is None:
            continue
        if name == "verify.run_suite":
            suite_s[s[ATTR]] += dur
            suite_svd[s[ATTR]] += s[SVD1] - s[SVD0]
        elif name == "cli.parse_matrix":
            parse_s += dur
            parse_bytes += os.path.getsize(s[ATTR])
        elif name == "cli.write_matrix":
            write_s += dur
            write_bytes += os.path.getsize(s[ATTR])

    out = {
        "matcore.svd_calls": tracer.svd_calls,
        "matcore.svd_s": tracer.svd_s,
        "matcore.pinv_calls": fn_calls.get("matcore.pinv", 0),
        "matcore.pinv_self_s": fn_self_s.get("matcore.pinv", 0.0),
        "matcore.as_cmat_calls": fn_calls.get("matcore.as_cmat", 0),
        "matcore.as_cmat_s": fn_s.get("matcore.as_cmat", 0.0),
        "solvers.system_general_calls": fn_calls.get("solvers.system_general", 0),
        "solvers.system_general_s": fn_s.get("solvers.system_general", 0.0),
        "solvers.raised": raised,
        "verify.oracle_calls": fn_calls.get("verify.lsq_oracle", 0),
        "verify.oracle_s": fn_s.get("verify.lsq_oracle", 0.0),
        "cli.parse_s": parse_s,
        "cli.parse_mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "cli.write_s": write_s,
        "cli.write_mb_per_s": write_bytes / 1e6 / write_s if write_s else 0.0,
        "trace.unattributed_s": max(wall_s - root_s, 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for name in suite_names:
        out[f"verify.suite.{name}.s"] = suite_s[name]
        out[f"verify.suite.{name}.svd"] = suite_svd[name]
    return out
