"""The four seeded workloads: their inputs, the timed op and its correctness check.

Every workload is a repeating *cycle* of ops whose composition is fixed and
whose parameters are drawn from the seed, so two seeds give the same mix of
sizes and the same share of known-defect edge points.  A run executes whole
cycles only.  One op is one call into the public API; one point is one
evaluated parameter point (a whole case on ``fock-oracle``).

References, in order of preference: a closed form evaluated here
(independently of ``hyqent.cli.CLOSED_FORMS``), the truncated Fock oracle on a
seeded subsample computed during set-up, and an invariant every point must
satisfy.  Edge ops hold the known-defect points; each is its own small op so
that a raising point fails only itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from hyqent import catalog, cli, compression, fock, kets, measures, witness

# closed-form and oracle tolerances: |got - ref| <= ATOL + RTOL |ref|
CLOSED_RTOL, CLOSED_ATOL = 1e-7, 1e-10
ORACLE_ATOL = 1e-6
# a ket whose Gram-Schmidt residual norm^2 is below the dependence tolerance is
# expressed in the existing basis, which moves Gram entries by up to its square root
GRAM_TOL = math.sqrt(getattr(compression, "DEPENDENCE_TOL", 1e-12))
# the set-up computes the Fock oracle on ops of the first ORACLE_CYCLES cycles
ORACLE_CYCLES = 2


def close(got, ref, rtol=CLOSED_RTOL, atol=CLOSED_ATOL):
    return bool(np.isfinite(got)) and abs(got - ref) <= atol + rtol * abs(ref)


@dataclass
class Op:
    """One timed call: ``run()`` is timed, ``verify(result)`` counts failed points."""

    kind: str
    run: object
    verify: object
    points: int = 1
    edge: bool = False
    oracle: object = None  # callable filling ``refs`` during set-up, or None
    refs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed forms (the benchmark's own copies)


def cat_concurrence(alpha, phi):
    e = math.exp(-4 * alpha**2)
    return -math.expm1(-4 * alpha**2) / (1 + e * math.cos(phi))


def damped_concurrence(alpha, eta):
    return math.exp(-2 * (1 - eta) * alpha**2) * math.sqrt(-math.expm1(-4 * eta * alpha**2))


def residual_tangle(q_phi, q_psi):
    return (1 - q_phi**2) * (1 - q_psi**2)


def thermal_s1(alpha, eta, n_th):
    e = math.exp(-4 * alpha**2)
    return (1 - eta) / 4 * n_th * (1 - e / 2) - eta * alpha**2 / 2 * e


def mixed24_s1(p, alpha):
    a2 = alpha**2
    return a2 / 2 * (p * (1 - p) - math.exp(-4 * a2) * (1 - 1.5 * p * (1 - p)))


def squeezed_s1(alpha, r):
    e = math.exp(-4 * alpha**2)
    return (math.sinh(r) ** 2 / 4 - e / 2 * alpha**2 * math.cosh(r) ** 2
            - e / 8 * math.sinh(r) ** 2)


def qubus_purity(alpha, theta, eta):
    # the two qubus branches are orthonormal, so purity = F^2 + (1 - F)^2
    f = 0.5 * (1 + math.exp(-(1 - eta) * alpha**2 * (1 - math.cos(theta))))
    return f * f + (1 - f) ** 2


def cat_wigner(amplitudes, xs, ps):
    """Closed-form Wigner function of the normalized sum of coherent kets.

    Each dyad |a><b| contributes <b|a> exp(-2 (z - a)(z* - b*)) / pi with
    z = (x + i p)/sqrt(2), so no Fock truncation enters.
    """
    x, p = np.meshgrid(xs, ps, indexing="ij")
    z = (x + 1j * p) / math.sqrt(2)
    total = np.zeros(x.shape, dtype=complex)
    norm = 0.0
    for a in amplitudes:
        for b in amplitudes:
            ov = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(b) * a)
            norm += ov.real
            total += ov * np.exp(-2 * (z - a) * (np.conj(z) - np.conj(b))) / math.pi
    return total.real / norm


# ---------------------------------------------------------------------------
# Fock oracles (truncated cross-check route, run during set-up)


def oracle_log_negativity_mixed23(p, alpha):
    state = catalog.mixed23(p, alpha).payload
    rho = state.to_fock_density(fock.default_cutoff(alpha))
    return measures.log_negativity(rho)


def oracle_entropy_qutrit(alpha):
    state = catalog.qutrit_qumode(alpha).payload
    n_cut = fock.default_cutoff(alpha)
    v = sum(np.kron(np.eye(3)[b.m], b.c * b.ket.to_fock(n_cut)) for b in state.terms[0][1])
    return measures.entropy_of_entanglement(v / np.linalg.norm(v), (3, n_cut + 1))


def oracle_purity_qubus(alpha, theta, eta):
    mix = catalog.qubus_state(alpha, theta, eta).payload
    n_cut = fock.default_cutoff(math.sqrt(eta) * alpha)
    vectors = []
    for pure in mix.pures:
        v = 0
        for c, (ket, q1, q2) in pure.branches:
            v = v + c * np.kron(ket.to_fock(n_cut), np.kron(np.eye(2)[q1], np.eye(2)[q2]))
        vectors.append(v / np.linalg.norm(v))
    w = np.asarray(mix.weights)
    gram = np.abs(np.array([[np.vdot(a, b) for b in vectors] for a in vectors])) ** 2
    return float(w @ gram @ w)


def oracle_negativity(state, n_cut):
    return measures.negativity(state.to_fock_density(n_cut))


def oracle_s2_qutrit(alpha):
    rho = catalog.qutrit_qumode(alpha).payload.to_fock_density(fock.default_cutoff(alpha))
    provider = witness.MatrixMomentProvider(rho, mode_subsystem=1)
    return witness.s2_minor(witness.sv_moment_matrix(provider, 2, qudit_dim=3))


# ---------------------------------------------------------------------------
# shared op constructors


def _sweep_op(kind, family, params, axes, outputs, closed=None, bounds=None,
              oracle_fn=None, rng=None, edge=False):
    """Op running cli.run_sweep over the axes, checked point by point.

    ``closed(point)`` is the closed-form reference; a family without one gives
    the measure's physical range as ``bounds`` instead.  With ``oracle_fn`` the
    set-up also evaluates the Fock oracle at one seeded point.
    """
    axes = [(name, np.asarray(values, dtype=float)) for name, values in axes]
    names = [n for n, _ in axes]
    n_points = int(np.prod([len(v) for _, v in axes]))
    # cli.run_sweep is looked up at call time, so a traced run sees its wrapper
    op = Op(kind, lambda: cli.run_sweep(family, params, axes, outputs), None,
            points=n_points, edge=edge)
    sample = int(rng.integers(n_points)) if oracle_fn is not None else None

    def point_params(row):
        out = dict(params)
        out.update(zip(names, row[:len(names)]))
        return out

    def verify(result):
        columns, rows = result
        measure_col = columns.index(outputs[0])
        failed = 0
        for i, row in enumerate(rows):
            value = float(row[measure_col])
            if closed is not None:
                ref = closed(point_params(row))
                # the program's closed-form column must agree as well
                ok = all(close(float(row[columns.index(o)]), ref) for o in outputs)
            else:
                ok = bool(np.isfinite(value)) and bounds[0] - 1e-12 <= value <= bounds[1] + 1e-12
            if ok and i == sample and "oracle" in op.refs:
                ok = abs(value - op.refs["oracle"]) <= ORACLE_ATOL
            failed += not ok
        return failed

    op.verify = verify
    if sample is not None:
        def run_oracle():
            grids = np.meshgrid(*[v for _, v in axes], indexing="ij")
            row = [g.ravel()[sample] for g in grids]
            op.refs["oracle"] = oracle_fn(**point_params(row))
        op.oracle = run_oracle
    return op


def _lin(rng, lo_range, hi_range, n):
    return np.linspace(rng.uniform(*lo_range), rng.uniform(*hi_range), n)


# ---------------------------------------------------------------------------
# exact-grid


def _exact_grid_op(slot, rng):
    if slot == "cat":
        return _sweep_op(
            "two-mode-cat/concurrence", "two-mode-cat", {},
            [("alpha", _lin(rng, (0.1, 0.4), (1.2, 2.0), 8)),
             ("phi", _lin(rng, (0.0, 0.3), (2 * math.pi - 0.3, 2 * math.pi), 8))],
            ["concurrence", "cat_concurrence_closed"],
            lambda p: cat_concurrence(p["alpha"], p["phi"]))
    if slot == "damped":
        return _sweep_op(
            "damped-binary-coherent/concurrence", "damped-binary-coherent", {},
            [("alpha", _lin(rng, (0.1, 0.4), (1.5, 2.0), 8)),
             ("eta", _lin(rng, (0.05, 0.2), (0.9, 1.0), 8))],
            ["concurrence", "damped_concurrence_closed"],
            lambda p: damped_concurrence(p["alpha"], p["eta"]))
    if slot == "mixed23":
        return _sweep_op(
            "mixed-23/log_negativity", "mixed-23", {},
            [("p", _lin(rng, (0.0, 0.1), (0.9, 1.0), 8)),
             ("alpha", _lin(rng, (0.1, 0.3), (1.5, 2.5), 8))],
            ["log_negativity"], bounds=(0.0, 1.0),
            oracle_fn=oracle_log_negativity_mixed23, rng=rng)
    if slot == "qutrit":
        return _sweep_op(
            "qutrit-qumode/entropy", "qutrit-qumode", {},
            [("alpha", _lin(rng, (0.05, 0.2), (1.5, 2.5), 64))],
            ["entropy"], bounds=(0.0, math.log2(3)),
            oracle_fn=oracle_entropy_qutrit, rng=rng)
    if slot == "qubus":
        eta = float(rng.uniform(0.5, 0.95))
        return _sweep_op(
            "qubus/purity", "qubus", {"eta": eta},
            [("alpha", _lin(rng, (0.2, 0.5), (1.5, 2.5), 8)),
             ("theta", _lin(rng, (0.1, 0.4), (2.5, 3.1), 8))],
            ["purity"], lambda p: qubus_purity(p["alpha"], p["theta"], p["eta"]),
            oracle_fn=oracle_purity_qubus, rng=rng)
    if slot == "tripartite":
        return _sweep_op(
            "tripartite-qmm/tau_res", "tripartite-qmm", {},
            [("q_phi", _lin(rng, (0.0, 0.1), (0.9, 1.0), 8)),
             ("q_psi", _lin(rng, (0.0, 0.1), (0.9, 1.0), 8))],
            ["tau_res", "residual_tangle_closed"],
            lambda p: residual_tangle(p["q_phi"], p["q_psi"]))
    raise ValueError(slot)


def _exact_grid_edge(slot, rng):
    if slot == "tiny-alpha":  # compression collapses to 2x1 today
        return _sweep_op("edge/binary-coherent alpha=1e-7", "binary-coherent", {"phi": 0.0},
                         [("alpha", [1e-7])], ["concurrence"],
                         lambda p: damped_concurrence(p["alpha"], 1.0), edge=True)
    if slot == "total-loss":  # dims (2, 1) today, expected C = 0
        return _sweep_op("edge/damped eta=0", "damped-binary-coherent", {},
                         [("alpha", [rng.uniform(0.5, 1.5)]), ("eta", [0.0])],
                         ["concurrence", "damped_concurrence_closed"],
                         lambda p: damped_concurrence(p["alpha"], p["eta"]), edge=True)
    if slot == "large-alpha":
        return _sweep_op("edge/binary-coherent alpha=6", "binary-coherent", {"phi": 0.0},
                         [("alpha", [6.0])], ["concurrence"],
                         lambda p: damped_concurrence(p["alpha"], 1.0), edge=True)
    if slot == "large-cat":
        return _sweep_op("edge/two-mode-cat alpha=6", "two-mode-cat", {},
                         [("alpha", [6.0]), ("phi", [rng.uniform(0, 2 * math.pi)])],
                         ["concurrence", "cat_concurrence_closed"],
                         lambda p: cat_concurrence(p["alpha"], p["phi"]), edge=True)
    raise ValueError(slot)


# Shares keep each percentile inside one latency group rather than on a group
# boundary: edge ops (1-point) are 20 % of ops, qutrit and mixed-23 (the
# fastest grids) 20 %, cat, damped and tripartite 45 %, so op_ms_p50 falls among
# them, and qubus (the slowest) 15 %, so op_ms_p90 falls among qubus ops.
EXACT_GRID_CYCLE = (
    ["cat", "damped", "tripartite", "qubus", "qutrit", "mixed23", "cat", "damped",
     "tripartite", "qubus", "qutrit", "mixed23", "cat", "damped", "tripartite", "qubus"],
    ["tiny-alpha", "total-loss", "large-alpha", "large-cat"],
)


def exact_grid_cycle(rng):
    grids, edges = EXACT_GRID_CYCLE
    return ([_exact_grid_op(s, rng) for s in grids]
            + [_exact_grid_edge(s, rng) for s in edges])


# ---------------------------------------------------------------------------
# wide-span


def _hybrid_spec(n_kets, rng):
    """Inline qubit-qumode mixture with n_kets distinct, well separated kets.

    Amplitudes sit on a jittered square lattice of pitch 1.6, so the Gram
    matrix stays well conditioned; every fourth ket is photon-added.
    """
    side = math.ceil(math.sqrt(n_kets))
    lattice = np.array([complex((i - (side - 1) / 2) * 1.6, (j - (side - 1) / 2) * 1.6)
                        for i in range(side) for j in range(side)])
    amps = lattice[rng.permutation(lattice.size)[:n_kets]]
    amps = amps + rng.uniform(-0.2, 0.2, n_kets) + 1j * rng.uniform(-0.2, 0.2, n_kets)
    ket_specs = []
    for i, a in enumerate(amps):
        spec = {"kind": "coherent", "alpha": [a.real, a.imag]}
        if i % 4 == 3:
            spec = {"kind": "photon_added_coherent", "k": 1 + (i // 4) % 3,
                    "alpha": [a.real, a.imag]}
        ket_specs.append(spec)
    n_terms = n_kets // 2
    weights = rng.dirichlet(np.ones(n_terms))
    terms = []
    for t in range(n_terms):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        terms.append({"p": float(weights[t]), "branches": [
            {"c": [c[m].real, c[m].imag], "m": m, "ket": ket_specs[2 * t + m]}
            for m in range(2)]})
    weights_sum = sum(t["p"] for t in terms)
    for t in terms:
        t["p"] /= weights_sum
    state = cli.build_state("hybrid", {"qudit_dim": 2, "terms": terms}).payload
    kmax = max(s.get("k", 0) for s in ket_specs)
    return state, fock.default_cutoff(np.abs(amps).max()) + 2 * kmax + 10


def analytic_gram(ket_list):
    """<k_i|k_j>: coherent pairs in closed form here, other pairs from kets.overlap."""
    alphas = np.array([k.alpha for k in ket_list], dtype=complex)
    coherent = np.array([k.kind == kets.COHERENT for k in ket_list])
    half = np.abs(alphas) ** 2 / 2
    gram = np.exp(-half[:, None] - half[None, :] + np.conj(alphas)[:, None] * alphas[None, :])
    for i in np.flatnonzero(~coherent):
        for j in range(len(ket_list)):
            gram[i, j] = kets.overlap(ket_list[i], ket_list[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def _geometric(terms, alpha, x, phi):
    state, _ = catalog.geometric_mixture(x, alpha, phi).payload.truncate(terms)
    return state, fock.default_cutoff(math.sqrt(terms) * alpha)


def _wide_span_op(kind, state, n_cut, with_oracle, edge=False):
    op = Op(kind, lambda: measures.negativity(compression.compress(state)), None, edge=edge)

    def verify(value):
        if "gram_residual" not in op.refs:
            # the analytic Gram matrix must be reproduced by the factorization;
            # the input is fixed, so the repeats of this op share one check
            ket_list = state.kets()
            gram = analytic_gram(ket_list)
            coeffs = compression.ket_expansion(ket_list)
            op.refs["gram_residual"] = float(np.abs(coeffs.reconstructed_gram() - gram).max())
            op.refs["basis_size"] = coeffs.basis_size
        residual = op.refs["gram_residual"]
        bound = (min(state.qudit_dim, op.refs["basis_size"]) - 1) / 2
        ok = residual <= GRAM_TOL and np.isfinite(value) and -1e-12 <= value <= bound + 1e-12
        if "oracle" in op.refs:
            ok = ok and abs(value - op.refs["oracle"]) <= ORACLE_ATOL
        return int(not ok)

    op.verify = verify
    if with_oracle:
        def run_oracle():
            op.refs["oracle"] = oracle_negativity(state, n_cut)
        op.oracle = run_oracle
    return op


# (kind, size) pairs; sizes are truncation terms (2 kets each) or ket counts.
# Regular truncations stop at 12 terms: from 16 terms on, the cancellation
# defect trips the trace check at some (alpha, x), and those points belong to
# the fixed edge set.  Shares put op_ms_p50 among the 32-ket hybrids and
# op_ms_p90 among the 128-ket hybrids, each 15 % of the ops.
WIDE_SPAN_CYCLE = (
    [("geo", 8), ("hyb", 16), ("geo", 12), ("hyb", 32), ("geo", 8), ("hyb", 64),
     ("hyb", 128), ("geo", 12), ("hyb", 32), ("hyb", 16), ("geo", 8), ("hyb", 64),
     ("hyb", 128), ("geo", 12), ("hyb", 32), ("hyb", 64), ("hyb", 128)],
    # alpha = 0.7, x = 0.5: the factorization's cancellation trips the trace check
    [16, 32, 64],
)
WIDE_SPAN_ORACLE_MAX_KETS = 32


def wide_span_cycle(rng):
    regular, edges = WIDE_SPAN_CYCLE
    ops = []
    for kind, size in regular:
        if kind == "geo":
            state, n_cut = _geometric(size, rng.uniform(1.1, 2.0), rng.uniform(0.3, 0.8),
                                      rng.uniform(0, 2 * math.pi))
            n_kets = 2 * size
        else:
            state, n_cut = _hybrid_spec(size, rng)
            n_kets = size
        ops.append(_wide_span_op(f"{kind}/{n_kets} kets", state, n_cut,
                                 n_kets <= WIDE_SPAN_ORACLE_MAX_KETS))
    for terms in edges:
        state, n_cut = _geometric(terms, 0.7, 0.5, 0.0)
        ops.append(_wide_span_op(f"edge/geometric alpha=0.7 {2 * terms} kets", state,
                                 n_cut, False, edge=True))
    return ops


# ---------------------------------------------------------------------------
# moment-witness


def _moment_op(slot, rng):
    if slot == "thermal":
        eta = float(rng.uniform(0.4, 0.9))
        return _sweep_op(
            "thermal-output/s1", "thermal-output", {"eta": eta, "phi": 0.0},
            [("alpha", _lin(rng, (0.1, 0.3), (1.0, 1.5), 4)),
             ("n_th", _lin(rng, (0.0, 0.05), (0.2, 0.5), 4))],
            ["s1", "thermal_s1_closed"],
            lambda p: thermal_s1(p["alpha"], p["eta"], p["n_th"]))
    if slot == "binary":
        return _sweep_op(
            "binary-coherent/s1", "binary-coherent", {"phi": 0.0},
            [("alpha", _lin(rng, (0.1, 0.3), (1.0, 1.5), 16))], ["s1"],
            lambda p: thermal_s1(p["alpha"], 1.0, 0.0))
    if slot == "mixed24":
        return _sweep_op(
            "mixed-24/s1", "mixed-24", {},
            [("p", _lin(rng, (0.0, 0.1), (0.9, 1.0), 4)),
             ("alpha", _lin(rng, (0.1, 0.3), (1.0, 1.5), 4))],
            ["s1", "mixed24_s1_closed"],
            lambda p: mixed24_s1(p["p"], p["alpha"]))
    if slot == "qutrit":
        return _sweep_op(
            "qutrit-qumode/s2", "qutrit-qumode", {},
            [("alpha", _lin(rng, (0.1, 0.3), (1.0, 1.5), 16))], ["s2"],
            bounds=(-math.inf, math.inf), oracle_fn=oracle_s2_qutrit, rng=rng)
    raise ValueError(slot)


def _moment_edge(slot, rng):
    if slot == "squeezed":  # the symbolic provider rejects squeezed kets today
        return _sweep_op(
            "edge/squeezed-binary-coherent s1", "squeezed-binary-coherent", {},
            [("alpha", [rng.uniform(0.3, 1.0)]), ("r", [rng.uniform(0.2, 0.6)])],
            ["s1", "squeezed_s1_closed"],
            lambda p: squeezed_s1(p["alpha"], p["r"]), edge=True)
    if slot == "large-alpha":
        return _sweep_op("edge/binary-coherent s1 alpha=6", "binary-coherent", {"phi": 0.0},
                         [("alpha", [6.0])], ["s1"],
                         lambda p: thermal_s1(p["alpha"], 1.0, 0.0), edge=True)
    if slot == "tiny-alpha":
        return _sweep_op("edge/binary-coherent s1 alpha=1e-7", "binary-coherent",
                         {"phi": 0.0}, [("alpha", [1e-7])], ["s1"],
                         lambda p: thermal_s1(p["alpha"], 1.0, 0.0), edge=True)
    if slot == "large-thermal":
        eta, n_th = float(rng.uniform(0.4, 0.9)), float(rng.uniform(0.05, 0.5))
        return _sweep_op("edge/thermal-output s1 alpha=6", "thermal-output",
                         {"eta": eta, "n_th": n_th, "phi": 0.0}, [("alpha", [6.0])],
                         ["s1", "thermal_s1_closed"],
                         lambda p: thermal_s1(p["alpha"], p["eta"], p["n_th"]), edge=True)
    raise ValueError(slot)


# Each family is 20 % of the ops, edge ops too; in latency order binary-coherent
# < thermal-output < mixed-24 < qutrit-qumode, so op_ms_p50 falls among the
# thermal-output sweeps and op_ms_p90 among the qutrit-qumode (d = 3) sweeps.
MOMENT_WITNESS_CYCLE = (
    ["thermal", "binary", "mixed24", "qutrit"] * 4,
    ["squeezed", "large-alpha", "tiny-alpha", "large-thermal"],
)


def moment_witness_cycle(rng):
    grids, edges = MOMENT_WITNESS_CYCLE
    return [_moment_op(s, rng) for s in grids] + [_moment_edge(s, rng) for s in edges]


# ---------------------------------------------------------------------------
# fock-oracle


def _thermal_case(kind, alpha, eta, n_th, n_cut):
    state = catalog.thermal_output(alpha, eta, n_th).payload

    def run():
        rho = state.truncated_density(n_cut)
        provider = witness.MatrixMomentProvider(rho, mode_subsystem=1)
        return witness.s1_minor(witness.sv_moment_matrix(provider, 2, qudit_dim=2))

    ref = thermal_s1(alpha, eta, n_th)
    return Op(kind, run, lambda value: int(not abs(value - ref) <= ORACLE_ATOL))


def _wigner_case(alpha, phi):
    amps = (alpha * np.exp(1j * phi), alpha * np.exp(-1j * phi))
    n_cut = fock.default_cutoff(alpha)
    extent = alpha * math.sqrt(2) + 5
    grid = np.linspace(-extent, extent, 41)

    def run():
        v = fock.coherent_ket(amps[0], n_cut) + fock.coherent_ket(amps[1], n_cut)
        v = v / np.linalg.norm(v)
        return fock.wigner(np.outer(v, v.conj()), grid, grid)

    def verify(field_):
        ref = cat_wigner(amps, grid, grid)
        return int(not np.abs(field_.values - ref).max() <= 1e-8)

    return Op("wigner/cat 41x41", run, verify)


def _to_fock_case(rng):
    r, theta = float(rng.uniform(0.2, 0.5)), float(rng.uniform(0, math.pi))
    amps = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    squeezed = [kets.SymbolicKet.squeezed_coherent(a, r, theta) for a in amps[:3]]
    added = [kets.SymbolicKet.photon_added(k, a) for k, a in zip((1, 2, 3), amps[3:])]
    n_cut = 40

    def run():
        return [k.to_fock(n_cut) for k in squeezed + added]

    def verify(vectors):
        worst = 0.0
        for group, vecs in ((squeezed, vectors[:3]), (added, vectors[3:])):
            for i, (ki, vi) in enumerate(zip(group, vecs)):
                for kj, vj in zip(group[i:], vecs[i:]):
                    worst = max(worst, abs(np.vdot(vi, vj) - kets.overlap(ki, kj)))
        return int(not worst <= ORACLE_ATOL)

    return Op("to_fock/squeezed+photon-added", run, verify)


def _tiny_alpha_case():
    """Fock-route concurrence of binary-coherent at alpha = 1e-7 against the exact route.

    The exact route (compression) collapses to 2x1 and raises today.
    """
    alpha = 1e-7
    n_cut = fock.default_cutoff(alpha)
    ket0 = kets.SymbolicKet.coherent(alpha)
    ket1 = kets.SymbolicKet.coherent(-alpha)

    def run():
        v0, v1 = ket0.to_fock(n_cut), ket1.to_fock(n_cut)
        v0, v1 = v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1)
        truncated = float(np.linalg.norm(v1 - np.vdot(v0, v1) * v0))
        _, rows = cli.run_sweep("binary-coherent", {"phi": 0.0},
                                [("alpha", np.array([alpha]))], ["concurrence"])
        return truncated, float(rows[0][-1])

    ref = damped_concurrence(alpha, 1.0)
    return Op("edge/binary-coherent alpha=1e-7 cross-check", run,
              lambda values: int(not all(close(v, ref, rtol=1e-6) for v in values)),
              edge=True)


def _strata(rng, lo, hi, n):
    """One uniform draw from each of n equal slices of [lo, hi], shuffled.

    Cost grows with these parameters, so stratifying keeps every cycle's
    cost spectrum the same whatever the seed.
    """
    return list(rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n))


# heavy: the eta = 0.5, n_th = 1, n_cut = 27 case (27 = default_cutoff(1.5)), 15 %
# of the cases, so op_ms_p90 falls among them; light: seeded thermal
# cross-checks at the default cutoff of their amplitude.  The Wigner cases
# (35 %) hold op_ms_p50.
FOCK_ORACLE_CYCLE = (
    ["heavy", "light", "wigner", "to_fock", "wigner", "light", "to_fock", "wigner",
     "heavy", "light", "wigner", "to_fock", "wigner", "light", "to_fock", "wigner",
     "heavy", "to_fock", "wigner"],
    ["tiny-alpha"],
)


def fock_oracle_cycle(rng):
    cases, edges = FOCK_ORACLE_CYCLE
    n_light, n_wigner = cases.count("light"), cases.count("wigner")
    light = list(zip(_strata(rng, 0.3, 1.2, n_light), _strata(rng, 0.4, 0.9, n_light),
                     _strata(rng, 0.05, 0.4, n_light)))
    wigner = list(zip(_strata(rng, 1.0, 2.0, n_wigner), _strata(rng, 0.2, 1.2, n_wigner)))
    ops = []
    for slot in cases:
        if slot == "heavy":
            ops.append(_thermal_case("thermal/heavy n_cut=27", 1.5, 0.5, 1.0, 27))
        elif slot == "light":
            alpha, eta, n_th = (float(v) for v in light.pop())
            ops.append(_thermal_case("thermal/light", alpha, eta, n_th,
                                     fock.default_cutoff(alpha)))
        elif slot == "wigner":
            alpha, phi = (float(v) for v in wigner.pop())
            ops.append(_wigner_case(alpha, phi))
        else:
            ops.append(_to_fock_case(rng))
    ops.extend(_tiny_alpha_case() for _ in edges)
    return ops


WORKLOADS = {
    "exact-grid": exact_grid_cycle,
    "wide-span": wide_span_cycle,
    "moment-witness": moment_witness_cycle,
    "fock-oracle": fock_oracle_cycle,
}
