"""Span tracer for the benchmark's traced run.

While installed, it replaces every module-level binding of each public
function of the ten blockdiag layers, and the numpy/scipy dense kernel entry
points, with a wrapper that records a span: id, parent id, call id, name,
layer, start and end. Because the bindings are replaced in every
``blockdiag`` module namespace (``from .core import operator_norm`` copies
included), calls between modules are captured as well as calls from the
benchmark. Spans stay in memory; the caller writes them out when the run
ends.

Kernel spans also carry a computed operation count (GFLOP) from textbook
LAPACK formulas applied to the argument shapes. It is computed from shapes,
not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: blockdiag modules traced as layers. ``fixtures`` runs only in set-up and
#: ``errors`` does no work, so neither is a layer.
LAYERS = (
    "core",
    "spectral",
    "angular",
    "riccati",
    "transform",
    "criteria",
    "subordinated",
    "dirac",
    "io",
    "cli",
)

#: Dense O(n^3) entry points, by the module whose attribute is patched.
KERNELS = {
    np.linalg: ("svd", "eigh", "eigvalsh", "eig", "eigvals", "solve", "lstsq", "qr"),
    scipy.linalg: ("schur", "solve_sylvester"),
}


def _dims(a) -> tuple[int, int]:
    shape = np.shape(a)
    return (shape[-2], shape[-1]) if len(shape) >= 2 else (shape[0], 1)


def _cols(b) -> int:
    shape = np.shape(b)
    return shape[-1] if len(shape) >= 2 else 1


def _flops(kernel: str, args, kwargs) -> float:
    """Textbook real-arithmetic operation count; complex input counts 4x."""
    a = args[0]
    m, n = _dims(a)
    p, q = min(m, n), max(m, n)
    if kernel == "svd":
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        count = (
            4 * q * q * p + 8 * q * p * p + 9 * p**3
            if compute_uv
            else 4 * q * p * p - 4 * p**3 / 3
        )
    elif kernel == "eigh":
        count = 9 * n**3
    elif kernel == "eigvalsh":
        count = 4 * n**3 / 3
    elif kernel == "eig":
        count = 25 * n**3
    elif kernel == "eigvals":
        count = 10 * n**3
    elif kernel == "schur":
        count = 25 * n**3
    elif kernel == "solve":
        count = 2 * n**3 / 3 + 2 * n * n * _cols(args[1])
    elif kernel == "lstsq":
        count = 4 * q * p * p - 4 * p**3 / 3 + 2 * m * n * _cols(args[1])
    elif kernel == "qr":
        count = 4 * q * p * p - 4 * p**3 / 3
    elif kernel == "solve_sylvester":
        k = _dims(args[1])[0]
        count = 25 * (n**3 + k**3) + 5 * (n * n * k + n * k * k)
    else:
        raise KeyError(kernel)
    complex_input = any(np.iscomplexobj(x) for x in args[:3])
    return count * (4 if complex_input else 1) / 1e9


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    call: str
    name: str
    layer: str
    start: float
    end: float
    gflop: float


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = ""
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, name: str, layer: str, kernel: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gflop = _flops(kernel, args, kwargs) if kernel else 0.0
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, parent, self.call, name, layer, start, end, gflop)
                )

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"blockdiag.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "blockdiag" and not modname.startswith("blockdiag."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for module, names in KERNELS.items():
            for kernel in names:
                fn = getattr(module, kernel)
                patched.append((module, kernel, fn))
                setattr(
                    module, kernel, self._wrap(fn, f"kernel.{kernel}", "kernel", kernel)
                )
        try:
            yield self
        finally:
            for module, attr, obj in reversed(patched):
                setattr(module, attr, obj)


def summarize(spans: list[Span]) -> dict:
    """Counts and times of one traced pass.

    A span's self time is its duration minus its children's durations.
    Returns calls and self seconds per layer and per function name, calls and
    seconds per kernel, computed GFLOP, the time covered by top-level spans,
    and the most negative self time seen (a nesting error if clearly < 0).
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    gflop = 0.0
    min_self = 0.0
    for s in spans:
        own = (s.end - s.start) - child_time[s.span_id]
        min_self = min(min_self, own)
        calls[s.layer] += 1
        self_s[s.layer] += own
        calls[s.name] += 1
        self_s[s.name] += own
        gflop += s.gflop
        if s.parent is None:
            covered += s.end - s.start
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "covered_s": covered,
        "gflop": gflop,
        "min_self_s": min_self,
    }
