from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import normalized_by_overlaps, pairwise_term_norm, shared_level_qubit
from hyqent import (MODE, Classification, DensityMatrix, HybridState, SymbolicKet,
                    classify, compress, compress_vector, default_cutoff,
                    entropy_of_entanglement, gram_matrix, inverse_gram_schmidt,
                    ket_expansion, log_negativity, negativity, overlap, purity)
from hyqent.catalog import (binary_coherent, geometric_mixture, mixed23, mixed24,
                            qubus_state, qutrit_qumode, thermal_output, two_mode_cat)


def test_three_ket_rows_match_the_triangular_construction(rng):
    c1, c2, c3 = (0.3 + 0.1j, 0.45 - 0.2j, 0.2 + 0.05j)
    gram = np.array([
        [1, c1, c2],
        [np.conj(c1), 1, c3],
        [np.conj(c2), np.conj(c3), 1],
    ])
    rows = inverse_gram_schmidt(gram).matrix
    assert np.allclose(rows[0], [1, 0, 0])
    assert rows[1, 0] == pytest.approx(c1)
    assert rows[1, 1] == pytest.approx(np.sqrt(1 - abs(c1) ** 2))
    third = (c3 - np.conj(c1) * c2) / np.sqrt(1 - abs(c1) ** 2)
    assert rows[2, 0] == pytest.approx(c2)
    assert rows[2, 1] == pytest.approx(third)
    assert rows[2, 2] == pytest.approx(
        np.sqrt(1 - abs(c2) ** 2 - abs(third) ** 2))


def test_identity_gram_gives_identity():
    coeffs = inverse_gram_schmidt(np.eye(4))
    assert np.allclose(coeffs.matrix, np.eye(4))


def test_nan_gram_is_rejected():
    with pytest.raises(ValueError):
        inverse_gram_schmidt(np.full((2, 2), np.nan))


def test_random_coherent_kets_preserve_overlaps(rng):
    for _ in range(10):
        n = rng.integers(2, 7)
        kets = [SymbolicKet.coherent(rng.normal() + 1j * rng.normal()) for _ in range(n)]
        coeffs = ket_expansion(kets)
        diag = np.diag(coeffs.matrix)
        assert np.all(np.abs(np.triu(coeffs.matrix, 1)) == 0.0)
        assert np.all(diag.real > 0) and np.abs(diag.imag).max() == 0.0
        gram = np.array([[overlap(a, b) for b in kets] for a in kets])
        assert np.abs(coeffs.reconstructed_gram() - gram).max() < 1e-12


def test_linear_dependence_reduces_dimension():
    # vacuum appears twice under different descriptions
    kets = [SymbolicKet.coherent(0.0), SymbolicKet.fock(0), SymbolicKet.coherent(1.0)]
    coeffs = ket_expansion(kets)
    assert coeffs.basis_size == 2
    assert coeffs.pivots == (0, 2)
    gram = np.array([[overlap(a, b) for b in kets] for a in kets])
    assert np.abs(coeffs.reconstructed_gram() - gram).max() < 1e-12


def test_gram_validation():
    with pytest.raises(ValueError):
        inverse_gram_schmidt(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        inverse_gram_schmidt(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_compress_pure_qubit_qumode_rows():
    st = binary_coherent(1.0).payload
    v, dims = compress_vector(st)
    n = np.exp(-2.0)  # overlap of the two kets
    expect = np.array([1, 0, n, np.sqrt(1 - n**2)]) / np.sqrt(2)
    assert dims == (2, 2)
    assert np.abs(v - expect).max() < 1e-12


def test_compress_qutrit_rows():
    al = 0.9
    st = qutrit_qumode(al).payload
    coeffs = ket_expansion(st.kets())
    x = np.exp(-abs(al) ** 2 / 2)
    expect = np.array([
        [1, 0, 0],
        [x, np.sqrt(1 - x**2), 0],
        [x, -x**2 * np.sqrt(1 - x**2), np.sqrt(1 - x**2 - x**4 + x**6)],
    ])
    assert np.abs(coeffs.matrix - expect).max() < 1e-12


def test_compress_damped_state_matrix():
    from hyqent import amplitude_damp

    eta, al = 0.6, 1.1
    rho = compress(amplitude_damp(binary_coherent(al).payload, eta))
    tau = np.exp(-2 * (1 - eta) * al**2)
    lam = np.exp(-2 * eta * al**2)
    s = np.sqrt(1 - lam**2)
    expect = 0.5 * np.array([
        [1, 0, lam * tau, tau * s],
        [0, 0, 0, 0],
        [lam * tau, 0, lam**2, lam * s],
        [tau * s, 0, lam * s, 1 - lam**2],
    ])
    assert rho.dims == (2, 2)
    assert np.abs(rho.matrix - expect).max() < 1e-10


def test_compress_product_state_is_pure_and_ppt():
    st = HybridState.pure(2, [(1.0, 0, SymbolicKet.coherent(0.8))])
    rho = compress(st)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert rho.dims == (2, 1)
    padded = DensityMatrix(np.kron(rho.matrix, np.eye(1)), (2, 1))
    assert negativity(padded, 0) == pytest.approx(0.0, abs=1e-12)


def test_log_negativity_invariant_under_compression():
    """Compressed and truncated-Fock representations give the same measure."""
    n_cut = 30
    for named in (binary_coherent(1.0), mixed23(0.35, 1.0), mixed24(0.3, 0.8)):
        st = named.payload
        compressed = log_negativity(compress(st), 1)
        truncated = log_negativity(st.to_fock_density(n_cut), 1)
        assert abs(compressed - truncated) < 1e-6, named.id


def test_classify_three_ways():
    assert classify(binary_coherent(1.0).payload).kind == Classification.PURE
    mixed = classify(mixed23(0.4, 1.0).payload)
    assert mixed.kind == Classification.MIXED and mixed.term_count == 2
    assert classify(geometric_mixture(0.4, 0.7).payload).kind == Classification.TRULY_HYBRID
    assert classify(thermal_output(1.0, 0.6, 0.5).payload).kind == Classification.TRULY_HYBRID
    with pytest.raises(TypeError):
        classify(np.eye(2))


def test_geometric_truncation_records_weight():
    fam = geometric_mixture(0.5, 0.6).payload
    truncated, neglected = fam.truncate(12)
    assert neglected == pytest.approx(0.5**12, rel=1e-10)
    assert truncated.term_count == 12
    assert classify(truncated).kind == Classification.MIXED


def test_a_stack_whose_points_differ_in_pivots_does_not_compress_as_one():
    # alpha = 1e-7 collapses the kets to one pivot, 0.5 and 0.9 keep two
    [(_, state)] = binary_coherent(np.array([0.5, 1e-7, 0.9])).payload
    for compress_fn in (compress, compress_vector):
        with pytest.raises(ValueError, match=r"the states differ in Gram pivots; "
                                             r"compress each of compression\.stacks"):
            compress_fn(state)


def test_compress_vector_two_mode_cat():
    v, dims = compress_vector(two_mode_cat(1.0, 0.0).payload)
    assert dims == (2, 2)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _layout_state(layout):
    """A state on one site layout; mode-only terms are left unnormalized."""
    if layout == "qubus":
        return qubus_state(1.1, 0.7, 0.8).payload
    a, b, f = SymbolicKet.coherent(0.9 - 0.3j), SymbolicKet.coherent(-0.5j), SymbolicKet.fock(1)
    h = np.sqrt(0.5)
    if layout == "qudit-qumode":
        return HybridState((2, MODE), [(0.3, [(h, (0, a)), (-1j * h, (1, b))]),
                                       (0.7, [(0.6, (0, f)), (0.8, (1, a))])])
    if layout == "qudit-qumode-qutrit":
        return HybridState((2, MODE, 3), [(0.4, [(0.6, (0, a, 2)), (0.8j, (1, b, 0))]),
                                          (0.6, [(h, (1, f, 1)), (h, (1, a, 2))])])
    if layout == "qudit-two-modes":
        return HybridState((MODE, 2, MODE), [(0.5, [(h, (a, 0, b)), (h, (b, 1, f))]),
                                             (0.5, [(0.8, (f, 0, f)), (-0.6, (a, 1, a))])])
    plus, minus = SymbolicKet.coherent(0.8), SymbolicKet.coherent(-0.8)
    return HybridState.pure((MODE, MODE), [(1, (plus, plus)), (1, (minus, minus))])


@pytest.mark.parametrize("layout", ["qubus", "qudit-qumode", "qudit-qumode-qutrit",
                                    "qudit-two-modes", "modes-only"])
def test_multi_site_compression_matches_kron_expansion(layout):
    """Branches placed by index agree with the Kronecker product of their factors."""
    state = _layout_state(layout)
    factors = []  # per site: level -> basis vector, or ket -> row of its expansion
    for a, site in enumerate(state.sites):
        if site == MODE:
            kets = list(dict.fromkeys(b.values[a] for _, bs in state.terms for b in bs))
            factors.append(dict(zip(kets, ket_expansion(kets).matrix)))
        else:
            factors.append(dict(enumerate(np.eye(site))))
    dims = tuple(len(next(iter(f.values()))) for f in factors)
    expect = 0
    for p, branches in state.terms:
        v = sum(c * reduce(np.kron, [f[x] for f, x in zip(factors, values)])
                for c, values in branches)
        if set(state.sites) == {MODE}:
            v = v / np.linalg.norm(v)
        expect = expect + p * np.outer(v, v.conj())
    rho = compress(state)
    assert rho.dims == dims
    assert np.abs(rho.matrix - expect).max() < 1e-15


def test_compress_vector_renormalizes_mode_only_terms():
    """An unnormalized mode-only term comes back as a unit vector, as compress takes it."""
    state = _layout_state("modes-only")
    v, dims = compress_vector(state)
    assert dims == (2, 2)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    assert np.abs(np.outer(v, v.conj()) - compress(state).matrix).max() < 1e-15
    assert entropy_of_entanglement(v, dims) > 0


def _lattice_hybrid(rng, n_kets):
    """Qubit-qumode mixture of n_kets distinct kets on a jittered square lattice.

    Pitch 1.6 keeps the Gram matrix well conditioned; every fourth ket is
    photon-added, of order 1 to 3.
    """
    side = int(np.ceil(np.sqrt(n_kets)))
    lattice = np.array([complex(i - (side - 1) / 2, j - (side - 1) / 2) * 1.6
                        for i in range(side) for j in range(side)])
    amps = lattice[rng.permutation(lattice.size)[:n_kets]]
    amps = amps + rng.uniform(-0.2, 0.2, n_kets) + 1j * rng.uniform(-0.2, 0.2, n_kets)
    kets = [SymbolicKet.photon_added(1 + (i // 4) % 3, a) if i % 4 == 3 else SymbolicKet.coherent(a)
            for i, a in enumerate(amps)]
    weights = rng.dirichlet(np.ones(n_kets // 2))
    terms = []
    for t, p in enumerate(weights):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        terms.append((p, [(c[m], m, kets[2 * t + m]) for m in range(2)]))
    return HybridState(2, terms), amps


def test_wide_lattice_family_reproduces_its_gram_matrix(rng):
    state, _ = _lattice_hybrid(rng, 128)
    kets = state.kets()
    coeffs = ket_expansion(kets)
    assert coeffs.basis_size == 128
    assert np.abs(coeffs.reconstructed_gram() - gram_matrix(kets)).max() < 1e-12


@pytest.mark.parametrize("terms, pivots, error", [(12, 18, 1.34e-9), (16, 19, 1.46e-5)])
def test_near_dependent_truncation_pivots_and_error(terms, pivots, error):
    """Pivot count and reconstruction error at (x, alpha) = (0.5, 0.7) stay as good as
    the per-row triangular solve they replaced gave."""
    state, _ = geometric_mixture(0.5, 0.7).payload.truncate(terms)
    kets = state.kets()
    coeffs = ket_expansion(kets)
    assert (coeffs.basis_size, len(kets)) == (pivots, 2 * terms)
    assert np.abs(coeffs.reconstructed_gram() - gram_matrix(kets)).max() < error


def test_wide_family_negativity_matches_fock_oracle(rng):
    state, amps = _lattice_hybrid(rng, 64)
    n_cut = default_cutoff(np.abs(amps).max()) + 16
    assert abs(negativity(compress(state)) - negativity(state.to_fock_density(n_cut))) < 1e-6


def test_shared_level_negativity_matches_fock_oracle():
    """Branches that share a level sum on one compressed row, as in the Fock route."""
    k, pa, fock = SymbolicKet.coherent, SymbolicKet.photon_added, SymbolicKet.fock
    raw = [[(0.5, (0, pa(1, 0.7))), (0.4, (0, k(-0.5j))), (0.6, (2, fock(2))), (0.3, (2, k(0.4)))],
           [(0.8, (1, k(0.6))), (-0.5, (1, pa(2, -0.3))), (0.4j, (0, fock(0)))]]
    mixed = HybridState((3, MODE), [(p, normalized_by_overlaps((3, MODE), bs))
                                    for p, bs in zip((0.35, 0.65), raw)])
    for state in (shared_level_qubit(), mixed):
        oracle = negativity(state.to_fock_density(40))
        assert abs(negativity(compress(state)) - oracle) < 1e-10


# --- compression does not depend on the order of terms and branches ----------
#
# The Gram-Schmidt basis follows ket order, so matrices differ between
# orderings; the spectrum, purity and negativity do not.

# well separated amplitudes (unit spacing times a scale >= 0.8) keep the Gram
# matrices well conditioned
PALETTE = (0.0, 1.0, -1.0, 1j, -1j)


def _invariants(state):
    rho = compress(state)
    return np.linalg.eigvalsh(rho.matrix), purity(rho), negativity(rho)


def _assert_same_invariants(a, b):
    spec_a, pur_a, neg_a = _invariants(a)
    spec_b, pur_b, neg_b = _invariants(b)
    assert spec_a.shape == spec_b.shape
    assert np.abs(spec_a - spec_b).max() < 1e-12
    assert abs(pur_a - pur_b) < 1e-12
    assert abs(neg_a - neg_b) < 1e-12


def _reordered(state, term_order, branch_orders):
    terms = [state.terms[i] for i in term_order]
    return HybridState(state.sites, [
        (p, [branches[j] for j in order])
        for (p, branches), order in zip(terms, branch_orders)])


@st.composite
def qudit_qumode_mixtures(draw, shared=False):
    """Qudit-qumode mixtures on distinct levels per term; with shared, levels may
    repeat (up to d + 1 branches) and each term is normalized through its overlaps."""
    d = draw(st.integers(2, 3))
    scale = draw(st.floats(0.8, 1.5))
    n_terms = draw(st.integers(1, 3))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(n_terms)]
    terms = []
    for w in weights:
        levels = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d + shared,
                               unique=not shared))
        amps = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in levels]
        norm = np.sqrt(sum(abs(a) ** 2 for a in amps))
        if norm < 1e-3:
            amps, norm = [1.0] * len(levels), np.sqrt(len(levels))
        branches = [(a / norm, m, SymbolicKet.coherent(scale * draw(st.sampled_from(PALETTE))))
                    for a, m in zip(amps, levels)]
        if shared:
            norm_sq = pairwise_term_norm((d, MODE), [(c, (m, k)) for c, m, k in branches])
            assume(norm_sq > 1e-2)  # no near-cancelling branches on one level
            branches = [(c / np.sqrt(norm_sq), m, k) for c, m, k in branches]
        terms.append((w / sum(weights), branches))
    return HybridState(d, terms)


def _orders(draw, state):
    term_order = draw(st.permutations(range(state.term_count)))
    branch_orders = [draw(st.permutations(range(len(state.terms[i].branches))))
                     for i in term_order]
    return term_order, branch_orders


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_qudit_qumode_compression_ignores_ordering(data):
    state = data.draw(qudit_qumode_mixtures())
    _assert_same_invariants(state, _reordered(state, *_orders(data.draw, state)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_shared_level_compression_ignores_ordering(data):
    state = data.draw(qudit_qumode_mixtures(shared=True))
    _assert_same_invariants(state, _reordered(state, *_orders(data.draw, state)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.floats(0.3, 2.0), st.floats(0.1, 3.0), st.floats(0.5, 0.95))
def test_qubus_compression_ignores_ordering(data, alpha, theta, eta):
    state = qubus_state(alpha, theta, eta).payload
    _assert_same_invariants(state, _reordered(state, *_orders(data.draw, state)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.3, 2.0), st.floats(0.0, 2 * np.pi))
def test_two_mode_cat_compression_ignores_ordering(alpha, phi):
    state = two_mode_cat(alpha, phi).payload
    _assert_same_invariants(state, _reordered(state, [0], [[1, 0]]))
