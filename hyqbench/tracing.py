"""Spans around calls into the hyqent modules, recorded from outside the package.

``install`` rebinds the public functions and methods listed in ``SPANNED`` to
wrappers that record one span per call: name, start, end, parent span and op
id.  Nothing under ``src/`` changes; a name the package no longer defines is
skipped, so the traced run keeps working after internal refactors and the
metrics that depend on it read 0.  Spans stay in memory until ``dump``.
"""

import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" attributes wrap the method.
SPANNED = (
    ("hyqent.cli", "run_sweep", "cli.run_sweep"),
    ("hyqent.channels", "amplitude_damp", "channels.amplitude_damp"),
    ("hyqent.channels", "thermal_kraus", "channels.thermal_kraus"),
    ("hyqent.channels", "apply_kraus", "channels.apply_kraus"),
    ("hyqent.channels", "ThermalHybridState.truncated_density", "channels.truncated_density"),
    ("hyqent.kets", "SymbolicKet.to_fock", "kets.to_fock"),
    ("hyqent.kets", "HybridState.to_fock_density", "kets.to_fock_density"),
    ("hyqent.compression", "compress", "compression.compress"),
    ("hyqent.compression", "compress_vector", "compression.compress_vector"),
    ("hyqent.compression", "compress_modal", "compression.compress_modal"),
    ("hyqent.compression", "compress_modal_mixture", "compression.compress_modal_mixture"),
    ("hyqent.compression", "ket_expansion", "compression.ket_expansion"),
    ("hyqent.compression", "inverse_gram_schmidt", "compression.inverse_gram_schmidt"),
    ("hyqent.composite", "DensityMatrix.__init__", "composite.DensityMatrix"),
    ("hyqent.composite", "partial_transpose", "composite.partial_transpose"),
    ("hyqent.composite", "partial_trace", "composite.partial_trace"),
    ("hyqent.composite", "purity", "composite.purity"),
    ("hyqent.measures", "concurrence", "measures.concurrence"),
    ("hyqent.measures", "negativity", "measures.negativity"),
    ("hyqent.measures", "log_negativity", "measures.log_negativity"),
    ("hyqent.measures", "entropy_of_entanglement", "measures.entropy_of_entanglement"),
    ("hyqent.measures", "ckw", "measures.ckw"),
    ("hyqent.witness", "SymbolicMomentProvider.__init__", "witness.provider_init"),
    ("hyqent.witness", "ThermalMomentProvider.__init__", "witness.provider_init"),
    ("hyqent.witness", "MatrixMomentProvider.__init__", "witness.matrix_provider"),
    ("hyqent.witness", "MatrixMomentProvider.__call__", "witness.matrix_provider"),
    ("hyqent.witness", "sv_moment_matrix", "witness.sv_moment_matrix"),
    ("hyqent.witness", "s1_minor", "witness.s1_minor"),
    ("hyqent.witness", "s2_minor", "witness.s2_minor"),
    ("hyqent.witness", "principal_minor", "witness.principal_minor"),
    ("hyqent.fock", "wigner", "fock.wigner"),
    ("hyqent.fock", "coherent_ket", "fock.coherent_ket"),
    ("hyqent.fock", "displace", "fock.displace"),
    ("hyqent.fock", "squeeze", "fock.squeeze"),
)

# calls counted without a span: too frequent for a span to stay cheap
COUNTED = (
    ("hyqent.channels", "thermal_dyad_moments", "channels.thermal_dyad_moments.calls"),
)


class Tracer:
    """In-memory span recorder plus the counters the per-layer table needs."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        # one entry per span in each column; typed arrays hold no Python
        # objects, so a long run does not slow the garbage collector
        self.name_ids, self.parents, self.op_ids = array("i"), array("q"), array("q")
        self.starts, self.ends = array("q"), array("q")
        self._stack = []
        self.op_id = -1
        self.paused = False  # set while the benchmark checks results
        self.counts = Counter()
        self.errors = Counter()
        self.maxima = defaultdict(float)
        self.kraus_calls = []  # (stored bytes, args, kwargs) of each thermal_kraus

    def _index(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name, fn, observe=None):
        idx = self._index(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends = self.starts, self.ends

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            pos = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            ends.append(0)
            stack.append(pos)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[pos] = clock()
                self.errors[name] += 1
                raise
            finally:
                stack.pop()
            ends[pos] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_times(self):
        """name -> [inclusive ns, self ns, calls] summed over all spans."""
        child_ns = [0] * len(self.starts)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for idx, start, end, inner in zip(self.name_ids, self.starts, self.ends, child_ns):
            acc = out[self.names[idx]]
            acc[0] += end - start
            acc[1] += end - start - inner
            acc[2] += 1
        return out


# ---------------------------------------------------------------------------
# observers: sizes and ratios taken where the work happens


def _observe_ket_expansion(tr, args, kwargs, result):
    kets = args[0] if args else kwargs["kets"]
    n = len(kets)
    tr.counts["kets.expansions"] += 1
    tr.counts["kets.distinct"] += n
    tr.counts["kets.overlap.calls"] += n * (n - 1) // 2
    tr.counts["compression.basis"] += getattr(result, "basis_size", 0)


def _observe_thermal_kraus(tr, args, kwargs, result):
    ops = getattr(result, "operators", ())
    stored = sum(getattr(k, "nbytes", 0) for k in ops)
    entries = sum(getattr(k, "size", 0) for k in ops)
    nnz = sum(int((k != 0).sum()) for k in ops)
    tr.counts["kraus.entries"] += entries
    tr.counts["kraus.nnz"] += nnz
    tr.maxima["kraus.operators"] = max(tr.maxima["kraus.operators"], len(ops))
    tr.maxima["kraus.stored_mb"] = max(tr.maxima["kraus.stored_mb"], stored / 1e6)
    tr.maxima["kraus.residual"] = max(tr.maxima["kraus.residual"],
                                      float(getattr(result, "completeness_residual", 0.0)))
    tr.kraus_calls.append((stored, args, kwargs))


def _observe_wigner(tr, args, kwargs, result):
    import numpy as np

    rho = args[0] if args else kwargs["rho"]
    m = np.asarray(getattr(rho, "matrix", rho))
    values = getattr(result, "values", None)
    tr.counts["wigner.calls"] += 1
    tr.counts["wigner.grid_points"] += 0 if values is None else values.size
    nonzero = (m != 0) | (m.T != 0)
    tr.counts["wigner.pair_terms"] += int(np.triu(nonzero).sum())


def _observe_moment_matrix(tr, args, kwargs, result):
    matrix = getattr(result, "matrix", None)
    tr.counts["witness.entries_computed"] += 0 if matrix is None else matrix.size


def _observe_minor(tr, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tr.counts["witness.entries_read"] += len(rows) ** 2


OBSERVERS = {
    "compression.ket_expansion": _observe_ket_expansion,
    "channels.thermal_kraus": _observe_thermal_kraus,
    "fock.wigner": _observe_wigner,
    "witness.sv_moment_matrix": _observe_moment_matrix,
    "witness.principal_minor": _observe_minor,
}


def _rebind(original, replacement):
    """Point every hyqent module global that names ``original`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name == "hyqent" or name.startswith("hyqent."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer):
    """Wrap every listed hyqent function that exists; return the names skipped."""
    import hyqent  # noqa: F401  (loads every submodule)

    skipped = []
    for mod_name, attr, span in SPANNED:
        mod = sys.modules.get(mod_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            skipped.append(f"{mod_name}.{attr}")
            continue
        observe = OBSERVERS.get(span)
        if span == "witness.sv_moment_matrix":
            wrapped = tracer.wrap(span, _counting_provider(tracer, original), observe)
        else:
            wrapped = tracer.wrap(span, original, observe)
        if owner_name:
            setattr(owner, method, wrapped)
        else:
            _rebind(original, wrapped)
    for mod_name, attr, name in COUNTED:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            skipped.append(f"{mod_name}.{attr}")
            continue
        _rebind(original, tracer.counter(name, original))
    _wrap_catalog(tracer)
    return skipped


def _counting_provider(tracer, sv_moment_matrix):
    """sv_moment_matrix whose provider argument is wrapped in a call counter."""

    def with_counted_provider(provider, *args, **kwargs):
        return sv_moment_matrix(tracer.counter("witness.provider.calls", provider),
                                *args, **kwargs)

    return with_counted_provider


def _wrap_catalog(tracer):
    catalog = sys.modules.get("hyqent.catalog")
    families = getattr(catalog, "FAMILIES", {})
    for key, entry in list(families.items()):
        ctor = entry[0]
        if ctor is not None:
            families[key] = (tracer.wrap("catalog.build", ctor),) + tuple(entry[1:])


# ---------------------------------------------------------------------------
# per-layer table


def kraus_peak_mb(tracer):
    """tracemalloc peak while rebuilding the largest Kraus set the run built.

    Rebuilt after the timed ops, so tracemalloc slows none of them.
    """
    import tracemalloc

    import hyqent.channels as channels

    if not tracer.kraus_calls:
        return 0.0
    _, args, kwargs = max(tracer.kraus_calls, key=lambda c: c[0])
    build = getattr(channels.thermal_kraus, "__wrapped__", channels.thermal_kraus)
    tracemalloc.start()
    try:
        build(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def layer_metrics(tracer, n_ops, extra):
    """Per-layer values from the spans and counters, plus ``extra``.

    ``extra`` holds values measured outside the traced calls: the Gram
    residual from the checks and the Kraus tracemalloc peak.  The set-up
    figures and the overhead ratio come from other children (see run.py).
    """
    times = tracer.layer_times()
    c, mx = tracer.counts, tracer.maxima
    ops = max(n_ops, 1)

    def per_op_ms(name, column=0):
        return times[name][column] / 1e6 / ops if name in times else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    measures_errors = sum(v for k, v in tracer.errors.items() if k.startswith("measures."))
    compression_errors = sum(v for k, v in tracer.errors.items()
                             if k.startswith("compression."))
    expansion = times.get("compression.ket_expansion", (0, 0, 0))
    values = {
        "cli.run_sweep.self_ms": per_op_ms("cli.run_sweep", 1),
        "catalog.build.ms": per_op_ms("catalog.build"),
        "channels.amplitude_damp.ms": per_op_ms("channels.amplitude_damp"),
        "kets.distinct_kets": ratio(c["kets.distinct"], c["kets.expansions"]),
        "kets.overlap.calls": c["kets.overlap.calls"] / ops,
        "kets.overlap.us": ratio(expansion[1] / 1e3, c["kets.overlap.calls"]),
        "kets.to_fock.ms": per_op_ms("kets.to_fock"),
        "compression.ket_expansion.ms": per_op_ms("compression.ket_expansion"),
        "compression.compress.self_ms": per_op_ms("compression.compress", 1),
        "compression.pivot_ratio": ratio(c["compression.basis"], c["kets.distinct"]),
        "compression.errors": compression_errors,
        "composite.DensityMatrix.ms": per_op_ms("composite.DensityMatrix"),
        "composite.partial_transpose.ms": per_op_ms("composite.partial_transpose"),
        "composite.partial_trace.ms": per_op_ms("composite.partial_trace"),
        "measures.concurrence.ms": per_op_ms("measures.concurrence"),
        "measures.negativity.ms": per_op_ms("measures.negativity"),
        "measures.log_negativity.ms": per_op_ms("measures.log_negativity"),
        "measures.entropy_of_entanglement.ms": per_op_ms("measures.entropy_of_entanglement"),
        "measures.ckw.ms": per_op_ms("measures.ckw"),
        "measures.errors": measures_errors,
        "witness.provider_init.ms": per_op_ms("witness.provider_init"),
        "witness.sv_moment_matrix.ms": per_op_ms("witness.sv_moment_matrix"),
        "witness.s1_minor.ms": per_op_ms("witness.s1_minor"),
        "witness.s2_minor.ms": per_op_ms("witness.s2_minor"),
        "witness.provider.calls": c["witness.provider.calls"] / ops,
        "witness.entries_used_ratio": ratio(c["witness.entries_read"],
                                            c["witness.entries_computed"]),
        "channels.thermal_dyad_moments.calls": c["channels.thermal_dyad_moments.calls"] / ops,
        "channels.thermal_kraus.ms": per_op_ms("channels.thermal_kraus"),
        "channels.thermal_kraus.operators": mx["kraus.operators"],
        "channels.thermal_kraus.stored_mb": mx["kraus.stored_mb"],
        "channels.thermal_kraus.nnz_ratio": ratio(c["kraus.nnz"], c["kraus.entries"]),
        "channels.apply_kraus.ms": per_op_ms("channels.apply_kraus"),
        "channels.completeness_residual_max": mx["kraus.residual"],
        "witness.matrix_provider.ms": per_op_ms("witness.matrix_provider"),
        "fock.wigner.ms": per_op_ms("fock.wigner"),
        "fock.wigner.grid_points": ratio(c["wigner.grid_points"], c["wigner.calls"]),
        "fock.wigner.pair_terms": ratio(c["wigner.pair_terms"], c["wigner.calls"]),
        "fock.coherent_ket.ms": per_op_ms("fock.coherent_ket"),
    }
    values.update(extra)
    return values


def dump(tracer, path, header):
    """Write the header, the span-name table and one JSON line per span.

    Each span line is [name index, start ns, end ns, parent span, op id].
    """
    import json

    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(json.dumps({"span_names": tracer.names}) + "\n")
        for rec in zip(tracer.name_ids, tracer.starts, tracer.ends, tracer.parents,
                       tracer.op_ids):
            fh.write(json.dumps(rec) + "\n")
