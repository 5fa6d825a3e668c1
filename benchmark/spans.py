"""Per-layer spans recorded from the benchmark process around package calls.

``Tracer.installed()`` wraps the public functions named in ``TRACED`` in
every package module that binds them (the defining module and each
``from .x import y`` copy), and wraps ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh`` to charge each eigensolve to the innermost open
span.  Spans nest on a stack; a span's self time is its busy time minus the
busy time of its child spans.  Nothing in the package source is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "operators": ("validate_povm_element", "require_density_matrix", "write_operator",
                  "read_operator"),
    "states": ("make_spectrum", "schmidt_state"),
    "twirl": ("twirl_entrywise",),
    "measurements": ("build_measurement",),
    "analysis": ("worst_case_value", "error_report"),
    "simulator": ("simulate", "make_sigma"),
    "asymptotics": ("rate_rows", "figure2_data", "figure2_csv", "figure1_csv",
                    "classical_chernoff"),
    "cli": ("run",),
}
MODULES = tuple(TRACED)
EIG_MODULES = ("analysis", "measurements", "operators", "simulator")

#: Extra per-call counts, as (metric suffix, function of the call's
#: arguments and result).
EXTRAS = {
    "operators.write_operator": ("bytes", lambda args, result: os.path.getsize(args[1])),
    "operators.read_operator": ("bytes", lambda args, result: os.path.getsize(args[0])),
    "simulator.simulate": ("shots", lambda args, result: args[0].shots),
    "asymptotics.figure2_csv": ("rows", lambda args, result: result.count("\n")),
}

#: Real flops of one dense Hermitian eigensolve of order n, as n^3 times
#: this factor: tridiagonal reduction 4/3 n^3, plus about 23/3 n^3 more
#: when eigenvectors are accumulated (Golub and Van Loan, 4th ed., 8.3).
#: Complex input costs four times as much.
_EIG_FLOP_FACTOR = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0}


def _eig_flops(kind: str, a) -> float:
    a = np.asarray(a)
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    return batch * _EIG_FLOP_FACTOR[kind] * n**3 * (4.0 if np.iscomplexobj(a) else 1.0)


class Tracer:
    """Aggregated span statistics for the calls made while installed."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child busy seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.eigensolves: dict[str, int] = defaultdict(int)
        self.eig_flops: dict[str, float] = defaultdict(float)
        self.root_busy = 0.0

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self.stack.pop()
                self.calls[name] += 1
                self.busy[name] += busy
                self.self_time[name] += busy - frame[1]
                if self.stack:
                    self.stack[-1][1] += busy
                else:
                    self.root_busy += busy
            if extra is not None:
                self.extra[f"{name}.{extra[0]}"] += extra[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eig(self, kind: str, fn):
        def counted(a, *args, **kwargs):
            owner = self.stack[-1][0].split(".")[0] if self.stack else "client"
            self.eigensolves[owner] += 1
            self.eig_flops[owner] += _eig_flops(kind, a)
            return fn(a, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        modules = [importlib.import_module("loccdetect")]
        modules += [importlib.import_module(f"loccdetect.{m}") for m in MODULES]
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"loccdetect.{layer}")
            for fname in names:
                original = getattr(mod, fname)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fname}", original))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        linalg = np.linalg
        saved = {kind: getattr(linalg, kind) for kind in _EIG_FLOP_FACTOR}
        for kind, fn in saved.items():
            setattr(linalg, kind, self._wrap_eig(kind, fn))
        try:
            yield self
        finally:
            for kind, fn in saved.items():
                setattr(linalg, kind, fn)
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, t in self.self_time.items():
            out[name.split(".")[0]] += t
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function, per-layer and eigensolve metrics as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.busy_s"] = (self.busy[name], "s")
                out[f"{name}.self_s"] = (self.self_time[name], "s")
        for key in ("operators.write_operator.bytes", "operators.read_operator.bytes",
                    "simulator.simulate.shots", "asymptotics.figure2_csv.rows"):
            out[key] = (self.extra[key], "B" if key.endswith("bytes") else "count")
        for layer, t in self.self_by_layer().items():
            out[f"{layer}.self_s"] = (t, "s")
        for layer in EIG_MODULES:
            out[f"{layer}.eigensolves"] = (self.eigensolves[layer], "count")
            out[f"{layer}.eig_flops_computed"] = (self.eig_flops[layer], "flop")
        shots = self.extra["simulator.simulate.shots"]
        ns = 1e9 * self.self_time["simulator.simulate"] / shots if shots else 0.0
        out["simulator.ns_per_shot"] = (ns, "ns")
        return out
