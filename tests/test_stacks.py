"""Template stacks: a sweep evaluates each template's points as one stack.

Every value must be bit-for-bit the value its point gives alone, and a sweep
with a bad point must raise what a point-by-point loop raises first.  This
holds for the compressed measures and for the moment witnesses alike.
"""

from functools import reduce
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_ket, shared_level_qubit
from hyqent import (MODE, DensityMatrix, HybridState, SymbolicKet, SymbolicMomentProvider, ckw,
                    cli, compression, concurrence, entropy_of_entanglement, gram_matrix,
                    log_negativity, negativity, purity, s1_minor, s2_minor, sv_moment_matrix)
from hyqent.catalog import (BROADCASTING as BROADCASTING_FAMILIES, FAMILIES, DiscreteKet,
                            binary_coherent, damped_binary_coherent, mixed23, qubus_state,
                            qutrit_qumode, two_mode_cat)
from hyqent.channels import ThermalHybridState


def _axis(lo, hi, *specials):
    """Axis values: a random subset, in random order, of floats in [lo, hi] and the specials."""
    values = st.one_of(st.sampled_from(specials), st.floats(lo, hi)) if specials else \
        st.floats(lo, hi)
    return st.lists(values, min_size=1, max_size=4, unique=True)


# the six exact-grid family x measure pairs; the specials are the template edges:
# eta = 1 (a one-term pure state), eta = 0 and alpha = 1e-7 (rank collapse), p = 0 or 1
# (one term), alpha = 0 and theta = 0 (one distinct ket)
EXACT_GRID_PAIRS = {
    "two-mode-cat/concurrence": ("two-mode-cat", {}, "concurrence",
                                 {"alpha": _axis(0.05, 2.0), "phi": _axis(0.0, 2 * np.pi, np.pi)}),
    "damped/concurrence": ("damped-binary-coherent", {}, "concurrence",
                           {"alpha": _axis(0.1, 2.0, 1e-7), "eta": _axis(0.05, 1.0, 0.0, 1.0)}),
    "mixed-23/log_negativity": ("mixed-23", {}, "log_negativity",
                                {"p": _axis(0.0, 1.0, 0.0, 1.0), "alpha": _axis(0.1, 2.5, 1e-7)}),
    "qutrit-qumode/entropy": ("qutrit-qumode", {}, "entropy",
                              {"alpha": _axis(0.05, 2.5, 0.0, 1e-7)}),
    "qubus/purity": ("qubus", {"eta": 0.7}, "purity",
                     {"alpha": _axis(0.2, 2.5, 1e-7), "theta": _axis(0.1, 3.1, 0.0)}),
    "tripartite-qmm/tau_res": ("tripartite-qmm", {}, "tau_res",
                               {"q_phi": _axis(0.0, 1.0, 0.0, 1.0), "q_psi": _axis(0.0, 1.0, 1.0)}),
}


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_sweep_values_are_each_point_alone_bit_for_bit(data):
    pair = data.draw(st.sampled_from(sorted(EXACT_GRID_PAIRS)))
    family, params, measure, axes = EXACT_GRID_PAIRS[pair]
    axes = [(name, np.array(data.draw(values))) for name, values in axes.items()]
    columns, rows = cli.run_sweep(family, params, axes, [measure])
    for row in rows:
        point = {**params, **dict(zip(columns, row[:-1]))}
        assert _bits(row[-1]) == _bits(cli.evaluate_output(measure, family, point)), (pair, point)


def _first_failure(family, params, axes, outputs):
    """The exception a point-by-point, row-major loop over the sweep meets first."""
    names = [name for name, _ in axes]
    grids = np.meshgrid(*[np.asarray(v, dtype=float) for _, v in axes], indexing="ij")
    for values in np.stack([g.ravel() for g in grids], axis=-1):
        point = {**params, **dict(zip(names, values))}
        for out in outputs:
            try:
                cli.evaluate_output(out, family, point)
            except Exception as exc:  # noqa: BLE001 -- any exception is the reference
                return exc
    return None


BAD_SWEEPS = {
    # phi = pi with alpha -> 0 is the cat's zero-norm corner: the build fails
    "cat zero norm": ("two-mode-cat", {}, [("alpha", [1e-8, 0.5, 1.0]), ("phi", [np.pi, 0.3])],
                      ["concurrence", "cat_concurrence_closed"]),
    "qutrit concurrence": ("qutrit-qumode", {}, [("alpha", [0.3, 0.9, 1.2])], ["concurrence"]),
    "mixed-23 bad p": ("mixed-23", {}, [("p", [0.3, 1.5, -0.2, 0.0]), ("alpha", [0.4, 1e-7])],
                       ["log_negativity"]),
    # only p = 0 and p = 1 are pure
    "mixed-23 entropy": ("mixed-23", {}, [("p", [0.0, 0.5, 1.0]), ("alpha", [0.7, 1.1])],
                         ["entropy"]),
    # alpha = 1e-7 collapses both sites to one dimension: negativity holds, concurrence does not
    "cat collapse": ("two-mode-cat", {}, [("alpha", [0.6, 1e-7, 1.3]), ("phi", [0.0, 2.0])],
                     ["negativity", "concurrence"]),
    # a closed form that fails mid-grid, ahead of the state build that fails there too
    "mixed-24 closed p = 1.4": ("mixed-24", {}, [("p", [0.2, 1.4, 0.7]), ("alpha", [0.5, 1.1])],
                                ["mixed24_s1_closed", "s1"]),
    # squeezed_s1_closed needs r: each point has two values before its failing cell
    "missing closed-form parameter": ("two-mode-cat", {}, [("alpha", [0.4, 0.9]),
                                                           ("phi", [0.0, 1.0])],
                                      ["concurrence", "cat_s1_closed", "squeezed_s1_closed"]),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_sweep_raises_what_the_point_loop_meets_first(data):
    family, params, axes, outputs = BAD_SWEEPS[data.draw(st.sampled_from(sorted(BAD_SWEEPS)))]
    axes = [(name, np.array(data.draw(st.permutations(values)))) for name, values in axes]
    expected = _first_failure(family, params, axes, outputs)
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        cli.run_sweep(family, params, axes, outputs)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


@pytest.mark.parametrize("name", sorted(BAD_SWEEPS))
def test_sweep_raises_what_the_point_loop_meets_first_with_three_workers(name):
    family, params, axes, outputs = BAD_SWEEPS[name]
    axes = [(axis, np.array(values)) for axis, values in axes]
    expected = _first_failure(family, params, axes, outputs)
    with pytest.raises(type(expected)) as got:
        cli.run_sweep(family, params, axes, outputs, workers=3)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


# the four moment-witness families; the specials put several templates in one sweep
# (alpha = 0: one distinct ket) and reach the edges alpha = 1e-7 and 6, n_th = 0,
# eta = 1 (the identity channel) and p = 0 or 1 (one term)
WITNESS_SWEEPS = {
    "thermal-output": ({"phi": 0.0}, {"alpha": _axis(0.01, 1.5, 0.0, 1e-7, 6.0),
                                      "eta": _axis(0.05, 1.0, 1.0),
                                      "n_th": _axis(0.0, 0.5, 0.0)}),
    "binary-coherent": ({}, {"alpha": _axis(0.01, 1.5, 0.0, 1e-7, 6.0),
                             "phi": _axis(0.0, 2 * np.pi, 0.0)}),
    "mixed-24": ({}, {"p": _axis(0.0, 1.0, 0.0, 1.0), "alpha": _axis(0.01, 1.5, 0.0, 1e-7, 6.0)}),
    "qutrit-qumode": ({}, {"alpha": _axis(0.01, 1.5, 0.0, 1e-7, 6.0)}),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_witness_values_are_each_point_alone_bit_for_bit(data):
    family = data.draw(st.sampled_from(sorted(WITNESS_SWEEPS)))
    params, axes = WITNESS_SWEEPS[family]
    axes = [(name, np.array(data.draw(values))) for name, values in axes.items()]
    outputs = data.draw(st.permutations(["s1", "s2"]))
    columns, rows = cli.run_sweep(family, params, axes, outputs)
    for row in rows:
        point = {**params, **dict(zip(columns, row[:len(axes)]))}
        state = cli.build_state(family, point).payload
        full = sv_moment_matrix(SymbolicMomentProvider(state), 2,
                                qudit_dim=3 if family == "qutrit-qumode" else 2)
        for out, value in zip(outputs, row[len(axes):]):
            assert _bits(value) == _bits(cli.evaluate_output(out, family, point)), (out, point)
            minor = s1_minor(full) if out == "s1" else s2_minor(full)
            assert _bits(value) == _bits(minor), (out, point)


BAD_WITNESS_SWEEPS = {
    # r = 0 is a coherent point with a value, r != 0 a squeezed one the witnesses reject
    "squeezed point": ("squeezed-binary-coherent", {}, [("alpha", [0.4, 0.9]),
                                                        ("r", [0.0, 0.3, 0.0])], ["s1"]),
    "two-mode-cat layout": ("two-mode-cat", {}, [("alpha", [0.5, 0.9]), ("phi", [0.0, 1.0])],
                            ["s2", "cat_s2_closed"]),
    "geometric mixture": ("geometric-mixture", {}, [("x", [0.3, 0.6]), ("alpha", [0.5])],
                          ["geom_s1_bound", "s1"]),
    # alpha = 1e160 overflows the moments; at 1e154 the moments hold and the s2 minor overflows
    "huge amplitudes": ("binary-coherent", {}, [("alpha", [0.5, 1e160, 1e154, 0.9])],
                        ["s2", "s1"]),
    "thermal huge and bad eta": ("thermal-output", {"n_th": 0.2},
                                 [("alpha", [0.7, 1e160, 0.2]), ("eta", [0.5, 1.5])],
                                 ["s1", "thermal_s1_closed"]),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_witness_sweep_raises_what_the_point_loop_meets_first(data):
    family, params, axes, outputs = BAD_WITNESS_SWEEPS[
        data.draw(st.sampled_from(sorted(BAD_WITNESS_SWEEPS)))]
    axes = [(name, np.array(data.draw(st.permutations(values)))) for name, values in axes]
    expected = _first_failure(family, params, axes, outputs)
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        cli.run_sweep(family, params, axes, outputs)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


def test_stacks_split_by_template_and_pivots():
    alphas = [0.5, 1e-7, 0.9]
    [(_, state)] = binary_coherent(np.array(alphas)).payload
    groups = compression.stacks(state)
    assert sorted(tuple(index) for index, _ in groups) == [(0, 2), (1,)]
    dims = {tuple(index): compression.compress(stack).dims for index, stack in groups}
    assert dims == {(0, 2): (2, 2), (1,): (2, 1)}
    for index, stack in groups:
        rho = compression.compress(stack).matrix
        for i, matrix in zip(index, rho):
            alone = compression.compress(binary_coherent(alphas[i]).payload).matrix
            assert np.array_equal(matrix, alone)


def test_density_matrix_stack_raises_what_its_first_bad_point_raises():
    good, heavy = np.eye(2) / 2, np.eye(2) * 0.6
    skew = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ValueError, match="trace 1.2 is not 1"):
        DensityMatrix([good, heavy, skew], (2,))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix([good, skew, heavy], (2,))
    negative = np.diag([1.1, -0.1])
    with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
        DensityMatrix([good, good, negative], (2,))
    with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
        DensityMatrix([good, negative, skew], (2,))
    with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
        DensityMatrix([negative, heavy], (2,))
    with pytest.raises(ValueError, match="trace 1.2 is not 1"):
        DensityMatrix([heavy, negative], (2,))
    assert DensityMatrix([good, good], (2,)).matrix.shape == (2, 2, 2)


def test_measures_of_a_stack_are_each_matrix_alone_bit_for_bit(rng):
    rhos = [random_density(rng, 4, rank) for rank in (1, 2, 3, 4, 4, 2)]
    stack = DensityMatrix(rhos, (2, 2))
    for measure in (concurrence, negativity, log_negativity, purity):
        values = measure(stack)
        assert values.shape == (len(rhos),)
        for value, rho in zip(values, rhos):
            assert _bits(value) == _bits(measure(DensityMatrix(rho, (2, 2))))
    kets = np.array([random_ket(rng, 8) for _ in range(5)])
    report = ckw(kets)
    for i, psi in enumerate(kets):
        alone = ckw(psi)
        assert all(_bits(getattr(report, f)[i]) == _bits(getattr(alone, f))
                   for f in ("c2_ab", "c2_ac", "c2_bc", "c2_a_bc", "tau_res"))
    kets = np.array([random_ket(rng, 6) for _ in range(5)])
    for value, psi in zip(entropy_of_entanglement(kets, (2, 3)), kets):
        assert _bits(value) == _bits(entropy_of_entanglement(psi, (2, 3)))


def _loop_factor(gram):
    """Column Cholesky one ket at a time, each new basis vector in the next free column."""
    n = gram.shape[0]
    rows, r = np.zeros((n, n), dtype=complex), 0
    for i in range(n):
        residual = gram[i, i].real - float(np.sum(np.abs(rows[i, :r]) ** 2))
        if residual > compression.DEPENDENCE_TOL:
            d = np.sqrt(residual)
            rows[i, r] = d
            rows[i + 1:, r] = (gram[i, i + 1:] - rows[i + 1:, :r] @ rows[i, :r].conj()) / d
            r += 1
    return rows[:, :r]


def _loop_compress(state):
    """rho of a HybridState with every branch placed one at a time, in branch order."""
    dims, rows = list(state.sites), {}
    for axis, kets, _ in compression.site_expansions(state):
        matrix = _loop_factor(gram_matrix(kets))
        dims[axis] = matrix.shape[1]
        rows[axis] = dict(zip(kets, matrix))
    vectors = np.zeros((state.term_count, prod(dims)), dtype=complex)
    for v, (_, branches) in zip(vectors, state.terms):
        view = v.reshape(dims)
        for c, values in branches:
            index = tuple(slice(None) if s == MODE else x for s, x in zip(state.sites, values))
            view[index] += c * reduce(np.multiply.outer, [rows[a][values[a]] for a in rows])
    if len(rows) == len(state.sites):
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return (vectors.T * state.weights) @ vectors.conj(), tuple(dims)


def _photon_added_mixture():
    k = SymbolicKet
    kets = [k.coherent(1.6), k.photon_added(2, -1.5 + 0.3j), k.coherent(0.2 + 1.7j),
            k.photon_added(1, -0.1 - 1.6j)]
    return HybridState(2, [(0.3, [(0.6, 0, kets[0]), (0.8, 1, kets[1])]),
                           (0.7, [(0.8j, 0, kets[2]), (0.6, 1, kets[3])])])


@pytest.mark.parametrize("state", [
    two_mode_cat(0.7, 1.0).payload, qubus_state(1.0, 0.3, 0.7).payload, shared_level_qubit(),
    mixed23(0.3, 0.9).payload, damped_binary_coherent(0.9, 0.5).payload,
    qutrit_qumode(0.8).payload, _photon_added_mixture()],
    ids=["two-mode-cat", "qubus", "shared-levels", "mixed-23", "damped", "qutrit", "photon-added"])
def test_compression_is_the_branch_loop_bit_for_bit(state):
    # full-rank families: the stacked factorization and the vectorized branch
    # placement do the loop's arithmetic in the loop's order
    matrix, dims = _loop_compress(state)
    rho = compression.compress(state)
    assert rho.dims == dims and np.array_equal(rho.matrix, matrix)


def _values(lo, hi, *specials):
    """One parameter value: a float in [lo, hi] or one of the specials."""
    return st.one_of(st.sampled_from(specials), st.floats(lo, hi)) if specials else \
        st.floats(lo, hi)


# each broadcasting constructor with a measure that holds on its whole range; the
# specials split templates: alpha = 0 and theta = 0 (kets coincide), p = 0 or 1, eta = 1
# and theta = 0 for the qubus (a term drops), eta = 0 or 1 and alpha = 1e-7 (rank collapse)
BROADCASTING = {
    "two-mode-cat": ("negativity", {"alpha": _values(0.05, 2.0, 0.0, 1e-7),
                                    "phi": _values(0.0, 3.0, 0.0)}),
    "binary-coherent": ("s1", {"alpha": _values(0.01, 1.5, 0.0, 1e-7, 6.0),
                               "phi": _values(0.0, 2 * np.pi, 0.0)}),
    "damped-binary-coherent": ("negativity", {"alpha": _values(0.1, 2.0, 0.0, 1e-7),
                                              "eta": _values(0.05, 1.0, 0.0, 1.0),
                                              "phi": _values(0.0, 2 * np.pi, 0.0)}),
    "thermal-output": ("s1", {"alpha": _values(0.01, 1.5, 0.0, 1e-7),
                              "eta": _values(0.05, 1.0, 0.0, 1.0),
                              "n_th": _values(0.0, 0.5, 0.0), "phi": _values(0.0, 2 * np.pi)}),
    "qutrit-qumode": ("entropy", {"alpha": _values(0.05, 2.5, 0.0, 1e-7)}),
    "mixed-23": ("log_negativity", {"p": _values(0.0, 1.0, 0.0, 1.0),
                                    "alpha": _values(0.1, 2.5, 0.0, 1e-7)}),
    "mixed-24": ("s1", {"p": _values(0.0, 1.0, 0.0, 1.0), "alpha": _values(0.01, 1.5, 0.0, 1e-7)}),
    "qubus": ("purity", {"alpha": _values(0.2, 2.5, 0.0, 1e-7), "theta": _values(0.1, 3.1, 0.0),
                         "eta": _values(0.05, 1.0, 0.0, 1.0)}),
    "tripartite-qmm": ("tau_res", {"q_phi": _values(0.0, 1.0, 0.0, 1.0),
                                   "q_psi": _values(0.0, 1.0, 0.0, 1.0)}),
}


def _contents(payload, j):
    """A payload's template and the bytes of its values at point j of its stack."""
    if isinstance(payload, DiscreteKet):
        return payload.dims, np.atleast_2d(payload.vector)[j].tobytes()
    channel = ()
    if isinstance(payload, ThermalHybridState):
        points = payload.base.points
        channel = tuple(np.broadcast_to(np.asarray(x, dtype=float), (points,))[j].tobytes()
                        for x in (payload.params.eta, payload.params.n_th))
        payload = payload.base
    return (payload.template, channel, payload.p[j].tobytes(), payload.c[j].tobytes(),
            tuple(a[j].tobytes() for a in payload.amps))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_broadcasting_constructors_are_their_scalar_calls_bit_for_bit(data):
    assert set(BROADCASTING) == BROADCASTING_FAMILIES
    family = data.draw(st.sampled_from(sorted(BROADCASTING)))
    measure, values = BROADCASTING[family]
    size = data.draw(st.integers(1, 6))
    args = {name: np.array(data.draw(st.lists(v, min_size=size, max_size=size)))
            for name, v in values.items()}
    ctor = FAMILIES[family][0]
    named = ctor(**args)
    covered = []
    for index, payload in named.payload:
        stacked = cli._stack_measure(measure, payload)
        for j, i in enumerate(index):
            alone = ctor(**{name: float(v[i]) for name, v in args.items()})
            point = (family, {name: v[i] for name, v in args.items()})
            # the point keeps the template it has alone, and its weights, coefficients and
            # slot amplitudes (or its vector) to the last bit
            assert _contents(payload, j) == _contents(alone.payload, 0), point
            # and that template is the one its terms give a state built from them
            base = getattr(alone.payload, "base", alone.payload)
            if isinstance(base, HybridState):
                assert base.template == HybridState(base.sites, base.terms).template, point
            assert _bits(stacked[j]) == _bits(cli._measure_value(measure, alone)), point
            if "fidelity" in alone.extra:
                assert _bits(named.extra["fidelity"][i]) == _bits(alone.extra["fidelity"])
            covered.append(i)
    assert sorted(covered) == list(range(size))


BAD_BUILDS = {
    "damped eta 1.5": ("damped-binary-coherent", {}, [("alpha", [0.4, 1.1]),
                                                      ("eta", [0.5, 1.5, 0.9])],
                       ["concurrence"]),
    "thermal negative n_th": ("thermal-output", {"eta": 0.6},
                              [("alpha", [0.3, 0.8]), ("n_th", [0.1, -0.1, 0.3])],
                              ["s1", "thermal_s1_closed"]),
    "tripartite |q_phi| > 1": ("tripartite-qmm", {}, [("q_phi", [0.2, 1.2, 0.7]),
                                                      ("q_psi", [0.5, 0.9])],
                               ["residual_tangle_closed", "tau_res"]),
    # at theta = 0 the fidelity is 1 whatever eta, so eta = 1.3 builds there alone
    "qubus eta 1.3": ("qubus", {}, [("alpha", [0.5, 1.0]), ("theta", [0.0, 0.4]),
                                    ("eta", [0.7, 1.3])], ["purity", "fidelity"]),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_build_failure_raises_what_the_point_loop_meets_first(data):
    family, params, axes, outputs = BAD_BUILDS[data.draw(st.sampled_from(sorted(BAD_BUILDS)))]
    axes = [(name, np.array(data.draw(st.permutations(values)))) for name, values in axes]
    expected = _first_failure(family, params, axes, outputs)
    assert expected is not None
    with pytest.raises(type(expected)) as got:
        cli.run_sweep(family, params, axes, outputs)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)


# the parameters each closed form reads, and the values of each parameter; the specials
# are alpha = 0, phi = pi, eta = 0 or 1, p = 0 or 1 and |q| = 1
CLOSED_FORM_PARAMS = {
    "cat_concurrence_closed": ("alpha", "phi"), "cat_s1_closed": ("alpha", "phi"),
    "cat_s2_closed": ("alpha", "phi"), "cat_selected_closed": ("alpha", "phi"),
    "squeezed_s1_closed": ("alpha", "r"), "mixed24_s1_closed": ("p", "alpha"),
    "thermal_s1_closed": ("alpha", "eta", "n_th"), "thermal_threshold_closed": ("alpha", "eta"),
    "damped_concurrence_closed": ("alpha", "eta"), "geom_s1_partial": ("x", "alpha"),
    "geom_s1_bound": ("x", "alpha"), "qubus_fidelity": ("alpha", "theta", "eta"),
    "residual_tangle_closed": ("q_phi", "q_psi"),
}
CLOSED_FORM_RANGES = {
    "alpha": (-2.0, 2.0), "phi": (0.0, 2 * np.pi), "r": (-1.2, 1.2), "p": (0.0, 1.0),
    "eta": (0.0, 1.0), "n_th": (0.0, 2.0), "x": (0.01, 0.99), "theta": (0.0, np.pi),
    "q_phi": (-1.0, 1.0), "q_psi": (-1.0, 1.0),
}
CLOSED_FORM_SPECIALS = {"alpha": (0.0,), "phi": (np.pi,), "p": (0.0, 1.0), "eta": (0.0, 1.0),
                        "q_phi": (-1.0, 1.0), "q_psi": (-1.0, 1.0)}
CLOSED_FORM_VALUES = {key: _values(*bounds, *CLOSED_FORM_SPECIALS.get(key, ()))
                      for key, bounds in CLOSED_FORM_RANGES.items()}


def _taking(keys):
    """The first family, by id, that takes every parameter in keys."""
    return next(family for family in sorted(FAMILIES) if set(keys) <= set(FAMILIES[family][1]))


@settings(max_examples=160, deadline=None, derandomize=True)
@given(st.data())
def test_closed_form_columns_are_each_point_alone_bit_for_bit(data):
    assert set(CLOSED_FORM_PARAMS) == set(cli.CLOSED_FORMS)
    name = data.draw(st.sampled_from(sorted(CLOSED_FORM_PARAMS)))
    keys = CLOSED_FORM_PARAMS[name]
    # each parameter is an axis or, at least one axis kept, a spec parameter
    fixed = data.draw(st.lists(st.sampled_from(keys[1:]), unique=True)) if len(keys) > 1 else []
    params = {key: data.draw(CLOSED_FORM_VALUES[key]) for key in fixed}
    axes = [(key, np.array(data.draw(st.lists(CLOSED_FORM_VALUES[key], min_size=1, max_size=4,
                                              unique=True))))
            for key in keys if key not in fixed]
    family = _taking(keys)
    expected = _first_failure(family, params, axes, [name])
    if expected is not None:  # a RuntimeWarning, as at alpha = 0, phi = pi
        with pytest.raises(type(expected)) as got:
            cli.run_sweep(family, params, axes, [name])
        assert str(got.value) == str(expected)
        return
    columns, rows = cli.run_sweep(family, params, axes, [name])
    for row in rows:
        point = {**params, **dict(zip(columns, row[:-1]))}
        assert _bits(row[-1]) == _bits(cli.evaluate_output(name, family, point)), point


@pytest.mark.parametrize("family, params, axes, outputs", [
    ("two-mode-cat", {}, [("alpha", [0.3, 1e-7, 1.2]), ("phi", [0.0, 2.0])],
     ["negativity", "cat_concurrence_closed", "cat_selected_closed"]),
    ("thermal-output", {"eta": 0.7}, [("alpha", [0.2, 0.9]), ("n_th", [0.0, 0.3])],
     ["s1", "thermal_s1_closed", "thermal_threshold_closed"]),
    ("geometric-mixture", {}, [("x", [0.1, 0.5]), ("alpha", [0.4, 1.2])],
     ["geom_s1_bound", "geom_s1_partial"]),
])
def test_a_successful_sweep_evaluates_no_point_alone(monkeypatch, family, params, axes, outputs):
    def alone(*args):
        raise AssertionError("a point was evaluated alone")
    monkeypatch.setattr(cli, "build_state", alone)
    monkeypatch.setattr(cli, "evaluate_output", alone)
    columns, rows = cli.run_sweep(family, params, [(n, np.array(v)) for n, v in axes], outputs)
    assert len(rows) == np.prod([len(v) for _, v in axes])
    assert all(np.isfinite(row).all() for row in rows)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_PARAMS))
def test_closed_form_columns_at_random_doubles_are_each_point_alone_bit_for_bit(rng, name):
    # hypothesis favours short floats, at which pow and array squaring agree; random
    # doubles reach the last bits where the two differ
    axes = [(key, rng.uniform(*CLOSED_FORM_RANGES[key], 48 if i == 0 else 3))
            for i, key in enumerate(CLOSED_FORM_PARAMS[name])]
    family = _taking(CLOSED_FORM_PARAMS[name])
    columns, rows = cli.run_sweep(family, {}, axes, [name])
    for row in rows:
        point = dict(zip(columns, row[:-1]))
        assert _bits(row[-1]) == _bits(cli.evaluate_output(name, family, point)), point
