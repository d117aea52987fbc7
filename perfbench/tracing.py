"""Spans around calls into the equilibrate modules, recorded from outside.

The benchmark does not change the package. Instead, `Tracer.install` swaps
each traced public function for a timing wrapper in every module namespace
that holds it: `cli`, `corpus`, `diagnostics` and `exact` import their
callees by name, so replacing only the defining module's attribute would
miss most calls. Three things cannot be reached that way and get their own
wrappers: `SparseMatrix.is_symmetric` (a method), probe draws (a
`ProbeSource` subclass put in place of the class where it is imported) and
products (a timing operator returned by a wrapped `from_sparse`).

A span is `[name, layer, start, end, parent]`. Spans stay in memory and are
written out with the result. A layer's self time is the time its spans
cover minus the time covered by their child spans.
"""

import functools
import hashlib
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "cli",
    "corpus",
    "structure",
    "io",
    "diagnostics",
    "exact",
    "stochastic",
    "matrix",
    "kernels",
)

# (module, attribute, layer): public functions wrapped in every namespace.
FUNCTIONS = (
    ("cli", "main", "cli"),
    ("cli", "run_experiment", "cli"),
    ("corpus", "generate", "corpus"),
    ("structure", "has_support", "structure"),
    ("structure", "has_total_support", "structure"),
    ("structure", "is_irreducible", "structure"),
    ("structure", "structure_report", "structure"),
    ("io", "read_matrix_market", "io"),
    ("io", "write_matrix_market", "io"),
    ("io", "write_report", "io"),
    ("diagnostics", "condition_number", "diagnostics"),
    ("diagnostics", "ratio", "diagnostics"),
    ("exact", "equilibrate_2norm", "exact"),
    ("exact", "jacobi_scale", "exact"),
    ("exact", "inf_norm_scale", "exact"),
    ("exact", "sinkhorn_knopp", "exact"),
    ("exact", "sym_sinkhorn_knopp", "exact"),
    ("stochastic", "ssbin", "stochastic"),
    ("stochastic", "snbin", "stochastic"),
    ("matrix", "scale", "matrix"),
    ("matrix", "from_sparse", "matrix"),
    ("_kernels", "matvec", "kernels"),
    ("_kernels", "rmatvec", "kernels"),
)


# Figures that only the timing operator from a wrapped `from_sparse` gives.
_PRODUCT_METRICS = (
    "matrix.apply",
    "matrix.apply_transpose",
    "matrix.applies",
    "matrix.transpose_applies",
    "matrix.product_gbps_computed",
)


def unavailable(metric, missing):
    """Whether a per-layer metric depends on a name that was not found."""
    return any(metric == n or metric.startswith((n + "_", n + ".")) for n in missing)


def _digest(m):
    h = hashlib.sha1()
    h.update(f"{m.nrows}x{m.ncols}".encode())
    for a in (m.indptr, m.indices, m.data):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_mb(path):
    return os.path.getsize(path) / 1e6


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.digests = set()
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------
    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, layer, fn, after=None):
        """Timing wrapper; ``after(args, kwargs, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that count work -----------------------------------------
    def _after_condition_number(self, args, kwargs, result):
        self.digests.add(_digest(args[0]))

    def _after_sweeps(self, args, kwargs, result):
        self.counts["stochastic.sweeps"] += int(args[1] if len(args) > 1 else kwargs["nmv"])

    def _iterations(self, key):
        def after(args, kwargs, result):
            self.counts[key] += result[1].iterations

        return after

    def _after_structure(self, args, kwargs, result):
        # Nested predicate calls (structure_report -> has_support) would
        # count the same matrix twice.
        if not any(self.spans[i][1] == "structure" for i in self._stack):
            self.counts["structure.nnz"] += args[0].nnz

    def _after_read(self, args, kwargs, result):
        self.counts["io.read_mb"] += _file_mb(args[0])

    def _after_write(self, args, kwargs, result):
        self.counts["io.write_mb"] += _file_mb(args[1])

    def _after_run_experiment(self, args, kwargs, result):
        self.counts["cli.cells"] += len(result)
        self.counts["cli.cells_failed"] += sum(1 for r in result if r.status != "ok")

    def take(self):
        """Hand over what was recorded so far and start afresh."""
        taken = (self.spans, self.counts, self.digests)
        self.spans, self.counts, self.digests = [], Counter(), set()
        return taken

    def _hooks(self):
        return {
            "diagnostics.condition_number": self._after_condition_number,
            "stochastic.ssbin": self._after_sweeps,
            "stochastic.snbin": self._after_sweeps,
            "exact.sinkhorn_knopp": self._iterations("exact.sinkhorn_knopp.iterations"),
            "exact.sym_sinkhorn_knopp": self._iterations(
                "exact.sym_sinkhorn_knopp.iterations"
            ),
            "structure.has_support": self._after_structure,
            "structure.has_total_support": self._after_structure,
            "structure.is_irreducible": self._after_structure,
            "structure.structure_report": self._after_structure,
            "io.read_matrix_market": self._after_read,
            "io.write_matrix_market": self._after_write,
            "cli.run_experiment": self._after_run_experiment,
        }

    # -- installation --------------------------------------------------
    def _replace_everywhere(self, original, replacement, skip=()):
        """Rebind every package-level name that refers to ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is None or modname in skip:
                continue
            if modname != "equilibrate" and not modname.startswith("equilibrate."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self, package):
        """Wrap the traced names; names that no longer exist are listed."""
        self.missing = []
        hooks = self._hooks()
        for modname, attr, layer in FUNCTIONS:
            module = sys.modules.get(f"{package.__name__}.{modname}")
            original = getattr(module, attr, None) if module is not None else None
            name = f"{layer}.{attr}"
            if original is None:
                self.missing.append(name)
                if name == "matrix.from_sparse":
                    self.missing.extend(_PRODUCT_METRICS)
                continue
            if (modname, attr) == ("matrix", "from_sparse"):
                replacement = self.wrap(name, layer, self._timed_from_sparse(original))
            else:
                replacement = self.wrap(name, layer, original, hooks.get(name))
            self._replace_everywhere(original, replacement)

        matrix = sys.modules.get(f"{package.__name__}.matrix")
        cls = getattr(matrix, "SparseMatrix", None)
        if cls is not None and hasattr(cls, "is_symmetric"):
            original = cls.is_symmetric
            cls.is_symmetric = self.wrap("matrix.is_symmetric", "matrix", original)
            self._undo.append((cls, "is_symmetric", original))
        else:
            self.missing.append("matrix.is_symmetric")

        stochastic = sys.modules.get(f"{package.__name__}.stochastic")
        base = getattr(stochastic, "ProbeSource", None)
        if base is not None:
            traced = self._traced_probe_class(base)
            self._replace_everywhere(base, traced, skip=(stochastic.__name__,))
        else:
            self.missing.append("stochastic.ProbeSource")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_probe_class(self, base):
        tracer = self

        class TracedProbeSource(base):
            def normal(self, size):
                record = tracer._open("stochastic.probe", "stochastic.probe")
                try:
                    return super().normal(size)
                finally:
                    tracer._close(record)
                    tracer.counts["stochastic.probe_draws"] += 1

        return TracedProbeSource

    def _timed_from_sparse(self, original):
        tracer = self

        def from_sparse(m):
            op = original(m)
            # Bytes a CSR product must touch: values and column indices,
            # row pointers, the input and the output vector.
            moved = 16 * m.nnz + 8 * (m.nrows + 1) + 8 * m.ncols + 8 * m.nrows
            return _TimedOperator(tracer, op, moved)

        return from_sparse


class _TimedOperator:
    """Product-only operator that records a span around each product."""

    def __init__(self, tracer, op, moved):
        self.nrows = op.nrows
        self.ncols = op.ncols
        self._tracer = tracer
        self._op = op
        self._moved = moved

    def _product(self, name, counter, fn, x):
        record = self._tracer._open(name, "matrix")
        try:
            return fn(x)
        finally:
            self._tracer._close(record)
            self._tracer.counts[counter] += 1
            self._tracer.counts["matrix.product_bytes"] += self._moved

    def apply(self, x):
        return self._product("matrix.apply", "matrix.applies", self._op.apply, x)

    def apply_transpose(self, x):
        return self._product(
            "matrix.apply_transpose", "matrix.transpose_applies", self._op.apply_transpose, x
        )


def summarize(spans, counts, digests):
    """Additive per-layer totals from spans and counters.

    Returns ``{metric: value}`` with span time by name (``<name>_s``), call
    counts (``<name>.calls``), self time by layer (``<layer>.self_s``) and
    the counters the hooks collected. Every value adds up across rounds;
    `derive` turns sums into ratios.
    """
    total = Counter()
    calls = Counter()
    child_time = Counter()
    for name, layer, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time = Counter()
    for index, (name, layer, start, end, parent) in enumerate(spans):
        self_time[layer] += (end - start) - child_time[index]

    out = Counter()
    for name in total:
        out[f"{name}_s"] = total[name]
        out[f"{name}.calls"] = calls[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["diagnostics.condition_number.distinct"] = len(digests)
    out.update(counts)
    return out


def derive(sums):
    """Ratios computed from additive totals."""
    out = dict(sums)
    cond_calls = sums.get("diagnostics.condition_number.calls", 0)
    out["diagnostics.condition_number.useful_ratio"] = (
        sums.get("diagnostics.condition_number.distinct", 0) / cond_calls
        if cond_calls
        else 0.0
    )
    product_s = sums.get("matrix.apply_s", 0.0) + sums.get("matrix.apply_transpose_s", 0.0)
    out["matrix.product_gbps_computed"] = (
        sums.get("matrix.product_bytes", 0) / product_s / 1e9 if product_s else 0.0
    )
    return out
