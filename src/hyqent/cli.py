"""Command-line front end: classify states, evaluate measures and witnesses,
run deterministic parameter sweeps, and emit figure-reproduction data.

Exit codes: 0 success, 2 input error, 3 inapplicable operation, 4 I/O error.
State specs are JSON documents; unknown keys are rejected.  Output files are
byte-identical across reruns and worker counts: rows are written in row-major
axis order and no wall-clock data enters the files (runtime goes to stderr).
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, catalog, composite, compression, fock, measures, witness
from .catalog import FAMILIES, DiscreteKet, NamedState
from .composite import DensityMatrix
from .errors import NumericInconsistency, UnsupportedKet
from .kets import HybridState, SymbolicKet

SPEC_KEYS = {"family", "params"}


class SpecError(ValueError):
    """Malformed state spec or command input (exit code 2)."""


class Inapplicable(ValueError):
    """Requested operation does not apply to this state class (exit code 3)."""


# ---------------------------------------------------------------------------
# state specs


def _as_real(value, where):
    if (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # finite, and no int beyond the double range
        return float(value)
    raise SpecError(f"{where}: expected a finite number, got {value!r}")


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)) or value % 1:
        raise SpecError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _as_complex(value, where):
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_real(value[0], where), _as_real(value[1], where))
    return complex(_as_real(value, where))


# ket kind -> its SymbolicKet constructor and its keys in argument order, with (parser, default)
KET_KINDS = {
    "coherent": (SymbolicKet.coherent, {"alpha": (_as_complex, 0.0)}),
    "fock": (SymbolicKet.fock, {"n": (_as_int, 0)}),
    "displaced_squeezed": (SymbolicKet.displaced_squeezed, {
        "alpha": (_as_complex, 0.0), "r": (_as_real, 0.0), "theta": (_as_real, 0.0)}),
    "photon_added_coherent": (SymbolicKet.photon_added, {
        "k": (_as_int, 0), "alpha": (_as_complex, 0.0)}),
}


def _parse_ket(obj, where):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"{where}: ket must be an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in KET_KINDS:
        raise SpecError(f"{where}: unknown ket kind {kind!r}; valid: {', '.join(KET_KINDS)}")
    ctor, keys = KET_KINDS[kind]
    extra = set(obj) - {"kind", *keys}
    if extra:
        raise SpecError(f"{where}: {kind} kets take only {list(keys)}, not {sorted(extra)}")
    return ctor(*(parse(obj.get(key, default), f"{where}.{key}")
                  for key, (parse, default) in keys.items()))


# parsers of the family parameters that are not real numbers
FAMILY_PARSERS = {"alpha": _as_complex, "q": _as_complex, "q_phi": _as_complex,
                  "q_psi": _as_complex, "ket0": _parse_ket, "ket1": _parse_ket}


def _parse_inline_hybrid(params):
    try:
        d = _as_int(params["qudit_dim"], "qudit_dim")
        terms = []
        for i, term in enumerate(params["terms"]):
            branches = [(_as_complex(b["c"], f"terms[{i}]"), _as_int(b["m"], f"terms[{i}]"),
                         _parse_ket(b["ket"], f"terms[{i}]"))
                        for b in term["branches"]]
            terms.append((_as_real(term["p"], f"terms[{i}]"), branches))
        return HybridState(d, terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid inline hybrid state: {exc}") from exc


def load_spec(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec {path} is not valid JSON: {exc}") from exc
    return validate_spec(doc)


def validate_spec(doc):
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(doc) - SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys {sorted(unknown)}")
    family = doc.get("family")
    if family != "hybrid" and family not in FAMILIES:
        raise SpecError(f"unknown family {family!r}; valid: "
                        f"{', '.join(sorted(FAMILIES))} or 'hybrid'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("params must be an object")
    return {"family": family, "params": params}


def build_state(family, params):
    """NamedState for a family id plus parameter dict: one point."""
    if family == "hybrid":
        return NamedState("hybrid", dict(params), _parse_inline_hybrid(params))
    ctor, names = FAMILIES[family]
    kwargs = {}
    for key, value in params.items():
        if key not in names:
            raise SpecError(f"family {family} does not take parameter {key!r}")
        kwargs[key] = FAMILY_PARSERS.get(key, _as_real)(value, key)
    try:
        return ctor(**kwargs)
    except TypeError as exc:
        raise SpecError(f"bad parameters for {family}: {exc}") from exc
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _build_stack(family, params, names, points):
    """[(indices, NamedState)] of a family at the points (rows of values of the axes names).

    A family in catalog.BROADCASTING is one constructor call that takes
    every axis as an array, so its NamedState holds one stack per template.
    Any other family is built point by point (build_state), and the points
    whose HybridStates share a template are joined into one stack; any
    other payload stands alone.  A point whose own build raises makes the
    call raise.
    """
    if family not in catalog.BROADCASTING:
        built = [build_state(family, {**params, **dict(zip(names, p))}) for p in points]
        out, stacks = [], {}
        for i, named in enumerate(built):
            if isinstance(named.payload, HybridState):
                stacks.setdefault(named.payload.template, []).append(i)
            else:
                out.append(([i], named))
        for index in stacks.values():
            state = HybridState.join([built[i].payload for i in index])
            out.append((np.array(index), NamedState(built[index[0]].id, {}, state)))
        return out
    ctor, keys = FAMILIES[family]
    columns = np.array(points, dtype=float).reshape(len(points), len(names)).T
    kwargs = {}
    for key, value in [*params.items(), *zip(names, columns)]:
        if key not in keys:
            raise SpecError(f"family {family} does not take parameter {key!r}")
        parse = FAMILY_PARSERS.get(key, _as_real)
        if key in names and parse not in (_as_real, _as_complex):
            raise SpecError(f"axis {key}: expected numbers")
        kwargs[key] = value if key in names else parse(value, key)
    return [(np.arange(len(points)), ctor(**kwargs))]


# ---------------------------------------------------------------------------
# measure evaluation


def _to_density(payload):
    if isinstance(payload, compression.Stack):
        return compression.compress(payload)
    if isinstance(payload, DiscreteKet):
        return DensityMatrix.from_ket(payload.vector, payload.dims)
    raise Inapplicable("state has no finite density-matrix description")


def _pure_vector(payload):
    if isinstance(payload, compression.Stack) and payload.is_pure:
        return compression.compress_vector(payload)
    if isinstance(payload, DiscreteKet):
        return payload.vector, payload.dims
    raise Inapplicable("measure needs a pure state")


def _bipartite(rho):
    if len(rho.dims) != 2:
        raise Inapplicable(f"measure needs a bipartite state, got dims {rho.dims}")
    return rho


def _witness_minor(name, payload):
    """s1 or s2 at each state of a stack (or at one state), from one moment provider."""
    try:
        provider = witness.SymbolicMomentProvider(payload)
    except (TypeError, UnsupportedKet) as exc:
        raise Inapplicable(f"moment witnesses need a coherent-family (possibly thermal) "
                           f"hybrid state: {exc}") from exc
    return witness.moment_minor(provider, witness.S1_INDICES if name == "s1"
                                else witness.S2_INDICES)


def _stack_measure(name, payload):
    """A measure at each state of a payload: a stack of one template, or one state."""
    if name in WITNESSES:
        return _witness_minor(name, payload)
    if isinstance(payload, HybridState):
        values = np.empty(payload.points)
        for index, stack in compression.stacks(payload):
            values[index] = _dv_measure(name, stack)
        return values
    return _dv_measure(name, payload)


def _dv_measure(name, payload):
    """A measure at each state of a compression Stack or a DiscreteKet (stack)."""
    if name == "concurrence":
        rho = _bipartite(_to_density(payload))
        try:
            return measures.concurrence(rho)
        except ValueError as exc:  # not an effective two-qubit state
            raise Inapplicable(str(exc)) from exc
    if name == "negativity":
        return measures.negativity(_bipartite(_to_density(payload)))
    if name == "log_negativity":
        return measures.log_negativity(_bipartite(_to_density(payload)))
    if name == "purity":
        return composite.purity(_to_density(payload))
    if name == "entropy":
        v, dims = _pure_vector(payload)
        if len(dims) != 2:
            raise Inapplicable("entropy of entanglement needs a bipartite pure state")
        return measures.entropy_of_entanglement(v, dims)
    v, dims = _pure_vector(payload)  # tau_res
    if dims != (2, 2, 2):
        raise Inapplicable("residual tangle needs an effective three-qubit state")
    return measures.ckw(v).tau_res


def _fidelity(named):
    if named.id != "qubus":
        raise Inapplicable("fidelity is defined for the qubus family")
    return named.extra["fidelity"]


def _measure_values(name, states, count):
    """One measure at each point of [(indices, NamedState)], as an array of count floats.

    A NamedState of P points is measured one template stack at a time: the
    moment witnesses by one provider call and one batched determinant, the
    other measures by compressing and measuring each stack's pivot groups at
    once; the fidelity is read from the states.
    """
    if name not in MEASURES:
        raise SpecError(f"unknown measure {name!r}; valid: {', '.join(sorted(MEASURES))}")
    values = np.empty(count)
    for index, named in states:
        if name == "fidelity":
            values[index] = _fidelity(named)
        elif isinstance(named.payload, tuple):
            for sub, payload in named.payload:
                values[index[sub]] = _stack_measure(name, payload)
        else:
            values[index] = _stack_measure(name, named.payload)
    return values


def _measure_value(name, named):
    return _measure_values(name, [([0], named)], 1).tolist()[0]


MEASURES = ("concurrence", "negativity", "log_negativity", "purity", "entropy",
            "tau_res", "s1", "s2", "fidelity")
WITNESSES = ("s1", "s2")


def _abs2(x):
    """abs(x) ** 2 as pow takes it at one point, for arrays too."""
    return np.float_power(np.abs(x), 2.0)


# closed-form outputs available to sweeps, keyed by (name) -> fn(p) and a
# formula string recorded in reproduction manifests; p(key) gives a parameter,
# a number or an array, and every fn broadcasts
CLOSED_FORMS = {
    "cat_concurrence_closed": (
        lambda p: (1 - np.exp(-4 * _abs2(p("alpha"))))
        / (1 + np.exp(-4 * _abs2(p("alpha"))) * np.cos(p("phi"))),
        "C = (1 - e^{-4 a^2}) / (1 + e^{-4 a^2} cos phi)"),
    "cat_s1_closed": (
        lambda p: witness.cat_witness_determinants(p("alpha"), p("phi"))[0],
        "s1 = -4 a^6 e^{4a^2} (1 - e^{4a^2} cos phi) / (e^{4a^2} + cos phi)^3"),
    "cat_s2_closed": (
        lambda p: witness.cat_witness_determinants(p("alpha"), p("phi"))[1],
        "s2 = -4 a^4 e^{4a^2} (1 + e^{4a^2} cos phi) / (e^{4a^2} + cos phi)^3"),
    "cat_selected_closed": (
        lambda p: witness.cat_witness_determinants(p("alpha"), p("phi"))[2],
        "Theta(cos(phi+pi)) s1 + Theta(cos phi) s2, Theta(0) = 1/2"),
    "squeezed_s1_closed": (
        lambda p: witness.squeezed_s1(p("alpha"), p("r")),
        "s1 = sinh^2(r)/4 - e^{-4a^2} a^2 cosh^2(r)/2 - e^{-4a^2} sinh^2(r)/8"),
    "mixed24_s1_closed": (
        lambda p: witness.mixed24_s1(p("p"), np.abs(p("alpha"))),
        "s1 = a^2/2 [p(1-p) - e^{-4a^2}(1 - 3p(1-p)/2)]"),
    "thermal_s1_closed": (
        lambda p: witness.thermal_s1(p("alpha"), p("eta"), p("n_th")),
        "s1 = (1-eta)/4 n_th (1 - e^{-4a^2}/2) - eta a^2/2 e^{-4a^2}"),
    "thermal_threshold_closed": (
        lambda p: witness.thermal_threshold(p("alpha"), p("eta")),
        "n_th < 4 eta a^2 / ((1-eta)(2 e^{4a^2} - 1))"),
    "damped_concurrence_closed": (
        lambda p: np.exp(-2 * (1 - p("eta")) * _abs2(p("alpha")))
        * np.sqrt(1 - np.exp(-4 * p("eta") * _abs2(p("alpha")))),
        "C = e^{-2(1-eta) a^2} sqrt(1 - e^{-4 eta a^2}) (re-derived; see README)"),
    "geom_s1_partial": (
        lambda p: witness.geometric_mixture_s1(p("x"), np.abs(p("alpha")))[0],
        "series form of s1, sqrt(n)-sums to convergence"),
    "geom_s1_bound": (
        lambda p: witness.geometric_s1_bound(p("x"), np.abs(p("alpha"))),
        "s1' = a^2/8 [2x/(1-x) - ((1-x)/(1-x e^{-2a^2}))^2 e^{-4a^2} (3 + 1/(1-x))]"),
    "qubus_fidelity": (
        lambda p: catalog.qubus_fidelity(p("alpha"), p("theta"), p("eta")),
        "F = [1 + e^{-(1-eta) a^2 (1 - cos theta)}]/2"),
    "residual_tangle_closed": (
        lambda p: (1 - _abs2(p("q_phi"))) * (1 - _abs2(p("q_psi"))),
        "tau = (1 - |Q_phi|^2)(1 - |Q_psi|^2)"),
}


def _closed_form(name, params, axes=None):
    """A closed form at params (numbers) and axes (finite arrays, by name); arrays broadcast.

    An axis stands as it is; any other parameter must be a finite real number.
    A nan value (an overflow, or an undefined point) raises SpecError; inf
    stands, as thermal_threshold's at eta >= 1 is a value.
    """
    fn, _ = CLOSED_FORMS[name]

    def param(key):
        if axes and key in axes:
            return axes[key]
        if key not in params:
            raise SpecError(f"output {name!r} needs parameter {key!r} "
                            f"(set it in params or as an axis)")
        return _as_real(params[key], key)
    value = fn(param)
    if np.isnan(value).any():
        raise SpecError(f"output {name!r} is nan: its arithmetic overflowed or is undefined")
    return value


def evaluate_output(name, family, params):
    """One output at one point.

    A closed form is the one-point case of the array evaluation a sweep
    chunk makes (_closed_form); a measure is measured on the point's state.
    """
    if name in CLOSED_FORMS:
        return float(_closed_form(name, params))
    if name in MEASURES:
        return _measure_value(name, build_state(family, params))
    raise SpecError(f"unknown output {name!r}")


# ---------------------------------------------------------------------------
# classify / measure commands


def _format_float(x):
    return f"{x:.12g}"


def _format_complex(z):
    z = complex(z)
    if z.imag == 0:
        return _format_float(z.real)
    return f"{_format_float(z.real)}{z.imag:+.12g}j"


def cmd_classify(args):
    spec = load_spec(args.spec)
    named = build_state(spec["family"], spec["params"])
    payload = named.payload
    print(f"family: {named.id}")
    if isinstance(payload, DiscreteKet):
        label = "discrete-variable state"
    else:
        cls = compression.classify(payload)
        if cls.kind == cls.TRULY_HYBRID:
            print("classification: truly-hybrid (infinite qumode family by construction)")
            return 0
        label = cls.kind + (f"({cls.term_count})" if cls.kind == cls.MIXED else "")
    print(f"classification: {label}")
    if isinstance(payload, HybridState):
        # one Gram expansion per mode site gives both the dims and the printed rows
        expansions = compression.site_expansions(payload)
        basis = {axis: coeffs.basis_size for axis, _, coeffs in expansions}
        dims = [basis.get(axis, site) for axis, site in enumerate(payload.sites)]
    else:
        expansions, dims = [], _to_density(payload).dims
    print(f"effective dimensions: {' x '.join(str(d) for d in dims)}")
    for axis, _, coeffs in expansions:
        where = f" of site {axis}" if len(expansions) > 1 else ""
        print(f"gram coefficients{where} (rows = kets, columns = orthonormal basis):")
        for row in coeffs.matrix:
            print("  [" + ", ".join(_format_complex(z) for z in row) + "]")
    return 0


TOLERANCES = {
    "dependence_tol": compression.DEPENDENCE_TOL,   # Gram-Schmidt rank threshold
    "trace_tol": composite.TRACE_TOL,
    "hermitian_tol": composite.HERMITIAN_TOL,
    "eig_tol": composite.EIG_TOL,
}


def cmd_measure(args):
    spec = load_spec(args.spec)
    named = build_state(spec["family"], spec["params"])
    value = _measure_value(args.measure, named)
    print(_format_float(value))
    print(f"# measure: {args.measure}")
    print(f"# family: {named.id}")
    print(f"# params: {json.dumps(_jsonable(named.params), sort_keys=True)}")
    print("# method: exact compression/closed forms; no Fock truncation")
    print(f"# tolerances: {json.dumps(TOLERANCES, sort_keys=True)}")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return obj.real if obj.imag == 0 else [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# sweeps


def _parse_axis(text):
    name, eq, body = text.partition("=")
    if not eq or not name:
        raise SpecError(f"axis {text!r} must be name=start:stop:count or name=v1,v2,...")
    if not body:
        return name, np.empty(0)  # empty axis: header-only sweep
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise SpecError(f"axis {text!r}: range form is start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise SpecError(f"axis {text!r}: count must be >= 1")
        values = np.linspace(*_finite_axis(name, [start, stop]), count)
    else:
        values = np.array([float(v) for v in body.split(",") if v != ""])
    return name, values


def _finite_axis(name, values):
    """The values of axis name as a float array, if each is finite (else SpecError)."""
    values = np.asarray(values, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise SpecError(f"axis {name}: expected finite numbers, got {float(bad[0])!r}")
    return values


def _sweep_chunk(packed):
    """Each output on a contiguous run of sweep points, as one array evaluation per output.

    A closed form is one call on the chunk's axis arrays (_closed_form).
    The states are built once (_build_stack), and every measure is
    evaluated one template stack at a time.  If any of it raises, the chunk
    is evaluated again as the reference loop: evaluate_output at each point
    and output in row-major order, up to the first that raises, so a
    failing sweep raises what that point raises alone.

    Returns the (points, outputs) array of values; when a point fails, the
    rows of values up to that point instead, the last one ending with the
    first exception in row-major order.
    """
    family, base_params, names, points, outputs = packed
    points = np.asarray(points, dtype=float).reshape(len(points), len(names))
    values = np.empty((len(points), len(outputs)))
    try:
        states = (_build_stack(family, base_params, names, points)
                  if any(out in MEASURES for out in outputs) else None)
        for j, out in enumerate(outputs):
            values[:, j] = (_measure_values(out, states, len(points)) if out in MEASURES
                            else _closed_form(out, base_params, dict(zip(names, points.T))))
        return values
    except Exception:  # the reference loop finds the point that raises first
        pass
    for i, point in enumerate(points):
        params = {**base_params, **dict(zip(names, point))}
        for j, out in enumerate(outputs):
            try:
                values[i, j] = evaluate_output(out, family, params)
            except Exception as exc:  # kept; run_sweep raises the first in row-major order
                return [*values[:i].tolist(), [*values[i, :j].tolist(), exc]]
    return values


def run_sweep(family, params, axes, outputs, workers=1):
    """Row-major sweep over the axes; deterministic regardless of worker count.

    Every axis value must be finite, and workers at least 1; either is
    checked before any work.  With workers > 1 each worker evaluates one
    contiguous chunk of the points (_sweep_chunk), and the rows are the axis
    columns and the chunks' values stacked once.  The first output, in
    row-major order, that raises makes the sweep raise that exception, as a
    point-by-point loop would.
    """
    if workers < 1:
        raise SpecError(f"--workers must be at least 1, got {workers}")
    axes = [(name, _finite_axis(name, values)) for name, values in axes]
    names = [n for n, _ in axes]
    grids = np.meshgrid(*[v for _, v in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    chunks = min(workers, len(points))
    jobs = [(family, params, names, chunk, tuple(outputs))
            for chunk in (np.array_split(points, chunks) if chunks > 1 else [points])]
    if len(jobs) == 1:
        results = [_sweep_chunk(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(_sweep_chunk, jobs))
    for result in results:
        if not isinstance(result, np.ndarray):
            raise result[-1][-1]
    return names + list(outputs), np.column_stack([points, np.concatenate(results)]).tolist()


def _write_rows(path, header_lines, columns, rows, fmt):
    try:
        with open(path, "w", newline="") as fh:
            if fmt == "csv":
                for line in header_lines:
                    fh.write(f"# {line}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_format_float(v) for v in row) + "\n")
            else:
                doc = {"metadata": header_lines, "columns": columns,
                       "rows": [[float(_format_float(v)) for v in row] for row in rows]}
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(OSError):
    pass


def cmd_sweep(args):
    spec = load_spec(args.spec)
    axes = [_parse_axis(a) for a in args.axis]
    outputs = [o for chunk in args.output for o in chunk.split(",") if o]
    if not outputs:
        raise SpecError("sweep needs at least one --output")
    for out in outputs:
        if out not in CLOSED_FORMS and out not in MEASURES:
            raise SpecError(f"unknown output {out!r}")
    t0 = time.monotonic()
    columns, rows = run_sweep(spec["family"], spec["params"], axes, outputs,
                              workers=args.workers)
    elapsed = time.monotonic() - t0
    header = [
        f"hyqent {__version__}",
        f"family: {spec['family']}",
        f"params: {json.dumps(_jsonable(spec['params']), sort_keys=True)}",
        "axes: " + "; ".join(f"{n}[{len(v)}]" for n, v in axes),
        "outputs: " + ",".join(outputs),
        "method: exact compression / closed forms (no truncation unless noted)",
        f"tolerances: {json.dumps(TOLERANCES, sort_keys=True)}",
    ]
    _write_rows(args.out, header, columns, rows, args.format)
    print(f"wrote {args.out} ({len(rows)} rows in {elapsed:.2f}s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# figure reproduction


def _fig_sweep(family, params, axes, outputs):
    return {"kind": "sweep", "family": family, "params": params,
            "axes": axes, "outputs": outputs}


FIGURES = {
    "cat-concurrence": _fig_sweep(
        "two-mode-cat", {},
        [("alpha", np.linspace(0.05, 2.0, 40)), ("phi", np.linspace(0.0, 2 * np.pi, 33))],
        ["concurrence", "cat_concurrence_closed"]),
    "cat-dets": _fig_sweep(
        "two-mode-cat", {},
        [("alpha", np.linspace(0.05, 1.5, 30)), ("phi", np.linspace(0.0, 2 * np.pi, 33))],
        ["cat_s1_closed", "cat_s2_closed", "cat_selected_closed"]),
    "squeezed-det": _fig_sweep(
        "squeezed-binary-coherent", {},
        [("r", np.linspace(0.0, 1.2, 25)), ("alpha", np.linspace(0.0, 2.0, 41))],
        ["squeezed_s1_closed"]),
    "damped-concurrence": _fig_sweep(
        "damped-binary-coherent", {},
        # eta = 0 collapses every ket to vacuum (effective 2x1 system), so the
        # grid starts just above total loss
        [("eta", np.linspace(0.05, 1.0, 20)), ("alpha", np.linspace(0.05, 2.0, 40))],
        ["concurrence", "damped_concurrence_closed"]),
    "logneg-23": _fig_sweep(
        "mixed-23", {},
        [("p", np.linspace(0.0, 1.0, 21)), ("alpha", np.linspace(0.05, 2.5, 25))],
        ["log_negativity"]),
    "det-24": _fig_sweep(
        "mixed-24", {},
        [("p", np.linspace(0.0, 1.0, 21)), ("alpha", np.linspace(0.0, 1.5, 31))],
        ["mixed24_s1_closed"]),
    "thermal-s1": _fig_sweep(
        "thermal-output", {"eta": 2.0 / 3.0},
        [("alpha", np.linspace(0.01, 1.5, 40)), ("n_th", np.linspace(0.0, 0.4, 21))],
        ["thermal_s1_closed", "s1"]),
    "thermal-region": _fig_sweep(
        "thermal-output", {"n_th": 0.0},
        [("eta", np.array([0.3, 0.5, 2.0 / 3.0, 0.9])),
         ("alpha", np.linspace(0.01, 1.5, 60))],
        ["thermal_threshold_closed"]),
    "arti-s1": _fig_sweep(
        "geometric-mixture", {},
        [("x", np.linspace(0.02, 0.98, 49)), ("alpha", np.linspace(0.02, 1.5, 38))],
        ["geom_s1_bound"]),
    "residual-ent": _fig_sweep(
        "tripartite-qmm", {},
        [("q_phi", np.linspace(0.0, 1.0, 21)), ("q_psi", np.linspace(0.0, 1.0, 21))],
        ["tau_res", "residual_tangle_closed"]),
    "wigner-cat": {"kind": "wigner"},
}


def _reproduce_wigner(out_dir, full):
    written = []
    variants = [("wigner-cat-alpha2.csv", 2.0)]
    if full:
        variants.append(("wigner-cat-alpha6.csv", 6.0))
    for fname, alpha in variants:
        n_cut = fock.default_cutoff(alpha)
        k1 = fock.coherent_ket(alpha * np.exp(1j * np.pi / 6), n_cut)
        k2 = fock.coherent_ket(alpha * np.exp(-1j * np.pi / 6), n_cut)
        v = k1 + k2
        v = v / np.linalg.norm(v)
        extent = abs(alpha) * np.sqrt(2.0) + 5.0
        grid = np.linspace(-extent, extent, 201)
        field = fock.wigner(np.outer(v, v.conj()), grid, grid)
        rows = [[x, p, field.values[i, j]] for i, x in enumerate(grid)
                for j, p in enumerate(grid)]
        header = [f"hyqent {__version__}",
                  f"cat state (|a e^(i pi/6)> + |a e^(-i pi/6)>)/sqrt(N), alpha = {alpha}",
                  f"n_cut: {n_cut}", f"grid mass: {_format_float(field.mass)}"]
        path = os.path.join(out_dir, fname)
        _write_rows(path, header, ["x", "p", "w"], rows, "csv")
        written.append({"file": fname, "alpha": alpha, "n_cut": n_cut,
                        "min_w": float(field.values.min())})
    return written


def cmd_reproduce(args):
    if args.workers < 1:
        raise SpecError(f"--workers must be at least 1, got {args.workers}")
    if args.figure not in FIGURES:
        raise SpecError(f"unknown figure id {args.figure!r}; valid: "
                        f"{', '.join(sorted(FIGURES))}")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create {args.out_dir}: {exc}") from exc
    plan = FIGURES[args.figure]
    manifest = {"figure": args.figure, "tool": f"hyqent {__version__}", "files": []}
    if plan["kind"] == "wigner":
        manifest["files"] = _reproduce_wigner(args.out_dir, args.full)
        manifest["formulas"] = ["W(x,p) = (1/pi) Int dy <x-y|rho|x+y> e^{2ipy}, "
                                "evaluated as an exact Fock-basis double sum"]
    else:
        columns, rows = run_sweep(plan["family"], plan["params"], plan["axes"],
                                  plan["outputs"], workers=args.workers)
        fname = f"{args.figure}.csv"
        header = [f"hyqent {__version__}", f"figure: {args.figure}",
                  f"family: {plan['family']}",
                  f"params: {json.dumps(_jsonable(plan['params']), sort_keys=True)}"]
        _write_rows(os.path.join(args.out_dir, fname), header, columns, rows, "csv")
        manifest["files"] = [{"file": fname, "rows": len(rows)}]
        manifest["formulas"] = [CLOSED_FORMS[o][1] for o in plan["outputs"]
                                if o in CLOSED_FORMS]
    man_path = os.path.join(args.out_dir, f"{args.figure}-manifest.json")
    try:
        with open(man_path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise _IOFailure(f"cannot write {man_path}: {exc}") from exc
    print(f"wrote {len(manifest['files'])} data file(s) + manifest to {args.out_dir}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyqent",
        description="hybrid qudit-qumode entanglement toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a state spec and show its compression")
    p.add_argument("spec", help="JSON state spec")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("measure", help="evaluate one measure on a state spec")
    p.add_argument("spec", help="JSON state spec")
    p.add_argument("--measure", required=True,
                   help=f"one of: {', '.join(MEASURES)}")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="deterministic parameter sweep to CSV/JSON")
    p.add_argument("spec", help="JSON state spec")
    p.add_argument("--axis", action="append", required=True,
                   help="name=start:stop:count or name=v1,v2,... (repeatable)")
    p.add_argument("--output", action="append", required=True,
                   help="comma-separated output names (measures or closed forms)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="emit figure-reproduction data files")
    p.add_argument("figure", help=f"one of: {', '.join(sorted(FIGURES))}")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--full", action="store_true",
                   help="also run the heavy alpha=6 Wigner variant")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, NumericInconsistency, _IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, Inapplicable) else 4 if isinstance(exc, _IOFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
