import copy
import gc
import itertools
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyqent.channels
import hyqent.witness
from conftest import random_density, random_ket, shared_level_qubit
from hyqent import (HybridState, InconsistentMoments, MatrixMomentProvider, MomentMatrix,
                    NumericInconsistency, SymbolicKet, SymbolicMomentProvider,
                    ThermalChannelParams, ThermalHybridState, UnsupportedKet, apply_thermal,
                    cat_witness_determinants, default_cutoff, geometric_mixture_s1,
                    geometric_s1_bound, heaviside_half, mixed24_s1, moment_minor, optimal_alpha,
                    principal_minor, qudit_mode_operators, s1_minor, s2_minor,
                    squeezed_s1, sv_moment_matrix, sv_multi_indices, swap_witness,
                    thermal_s1, thermal_threshold, witness_region)
from hyqent.catalog import (binary_coherent, mixed24, qutrit_qumode,
                            squeezed_binary_coherent)
from hyqent.composite import DensityMatrix
from hyqent.witness import BOUNDARY_XTOL, S1_INDICES, S2_INDICES, SERIES_TOL


def test_multi_index_ordering_head():
    idx = sv_multi_indices(1)
    assert idx == [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]
    # qudit powers above d-1 vanish and their rows are dropped
    idx2 = sv_multi_indices(2, qudit_dim=2)
    assert (0, 0, 2, 0) not in idx2 and (0, 0, 0, 2) not in idx2
    assert len(idx2) == 13


def test_qudit_mode_operators():
    a2, a2d = qudit_mode_operators(2)
    assert np.allclose(a2, [[0, 1], [0, 0]])
    for d in (2, 3, 5):
        ad_, add_ = qudit_mode_operators(d)
        assert np.abs(np.linalg.matrix_power(ad_, d)).max() == 0.0
        comm = ad_ @ add_ - add_ @ ad_
        expect = np.eye(d)
        expect[-1, -1] = -(d - 1)
        assert np.abs(comm - expect).max() < 1e-12
    with pytest.raises(ValueError):
        qudit_mode_operators(1)


def test_vacuum_moment_matrix():
    vac = HybridState.pure(2, [(1.0, 0, SymbolicKet.vacuum())])
    mm = sv_moment_matrix(SymbolicMomentProvider(vac), 2, qudit_dim=2)
    assert mm.matrix[0, 0] == pytest.approx(1.0)
    # annihilation-leading first moments all vanish on the vacuum
    for u in ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)):
        assert abs(mm.matrix[0, mm.position(u)]) < 1e-14


def closed_s1(alpha):
    return -abs(alpha) ** 2 / 2 * np.exp(-4 * abs(alpha) ** 2)


def closed_s2(alpha):
    return abs(alpha) ** 2 / 2 * (1 - np.exp(-4 * abs(alpha) ** 2))


def test_symbolic_minors_match_closed_forms():
    for al in (0.4, 1.0, 1.7, 2.0):
        mm = sv_moment_matrix(SymbolicMomentProvider(binary_coherent(al).payload),
                              2, qudit_dim=2)
        assert s1_minor(mm) == pytest.approx(closed_s1(al), abs=1e-12)
        assert s2_minor(mm) == pytest.approx(closed_s2(al), abs=1e-12)
        assert np.abs(mm.matrix - mm.matrix.conj().T).max() < 1e-10


def test_matrix_provider_adapted_and_embedded_agree():
    al, n_cut = 1.0, 30
    rho = binary_coherent(al).payload.to_fock_density(n_cut)
    for mode in ("adapted", "embedded"):
        prov = MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode=mode)
        mm = sv_moment_matrix(prov, 2, qudit_dim=2)
        assert s1_minor(mm) == pytest.approx(closed_s1(al), abs=1e-8), mode
        assert s2_minor(mm) == pytest.approx(closed_s2(al), abs=1e-8), mode
    with pytest.raises(ValueError):
        MatrixMomentProvider(rho, mode_subsystem=2)
    with pytest.raises(ValueError):
        MatrixMomentProvider(rho, qudit_mode="padded")


def _swap_factors(rho):
    d0, d1 = rho.dims
    t = rho.matrix.reshape(d0, d1, d0, d1).transpose(1, 0, 3, 2)
    return DensityMatrix(t.reshape(d0 * d1, d0 * d1), (d1, d0))


@pytest.mark.parametrize("qudit_mode", ["adapted", "embedded"])
@pytest.mark.parametrize("family", [binary_coherent, qutrit_qumode], ids=["d2", "d3"])
def test_matrix_provider_mode_first_matches_mode_second(family, qudit_mode):
    rho = family(0.8).payload.to_fock_density(20)
    d = rho.dims[0]
    second = sv_moment_matrix(MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode=qudit_mode),
                              2, qudit_dim=d)
    first = sv_moment_matrix(MatrixMomentProvider(_swap_factors(rho), mode_subsystem=0,
                                                  qudit_mode=qudit_mode), 2, qudit_dim=d)
    assert first.index_map == second.index_map
    assert np.abs(first.matrix - second.matrix).max() < 1e-13


def test_s1_phase_independent():
    values = [s1_minor(sv_moment_matrix(
        SymbolicMomentProvider(binary_coherent(0.8, phi).payload), 2, qudit_dim=2))
        for phi in (0.0, 1.1, np.pi, 5.0)]
    assert np.ptp(values) < 1e-10


def test_principal_minor_validation():
    mm = sv_moment_matrix(SymbolicMomentProvider(binary_coherent(0.7).payload),
                          2, qudit_dim=2)
    assert principal_minor(mm, [0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        principal_minor(mm, [2, 1])
    with pytest.raises(InconsistentMoments):
        sv_moment_matrix(lambda aw, bw: np.where(aw.sum(-1) + bw.sum(-1) == 0, 1.0, 1j), 1)


def test_heaviside_convention():
    assert heaviside_half(2.0) == 1.0
    assert heaviside_half(-0.1) == 0.0
    assert heaviside_half(0.0) == 0.5


def test_cat_witness_covers_every_phase():
    for al in (0.3, 1.0):
        for phi in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            s1, s2, sel = cat_witness_determinants(al, phi)
            assert sel < 0.0
            assert abs(sel) > 1e-12
    s1, s2, _ = cat_witness_determinants(1.0, np.pi)
    assert s1 < 0
    s1, s2, _ = cat_witness_determinants(1.0, 0.0)
    assert s2 < 0 < s1
    assert cat_witness_determinants(0.0, 1.0) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("phi", [0.0, 0.9, np.pi / 2, np.pi, 4.0])
def test_cat_determinants_match_generic_two_mode_path(phi):
    # fully CV cat: both subsystems are genuine modes, one embedded as 'qudit'
    from hyqent import coherent_ket

    al = 0.7
    n_cut = 16
    v = (np.kron(coherent_ket(al, n_cut), coherent_ket(al, n_cut))
         + np.exp(1j * phi)
         * np.kron(coherent_ket(-al, n_cut), coherent_ket(-al, n_cut)))
    v = v / np.linalg.norm(v)
    rho = DensityMatrix.from_ket(v, (n_cut + 1, n_cut + 1))
    prov = MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode="embedded")
    mm = sv_moment_matrix(prov, 2)
    s1c, s2c, _ = cat_witness_determinants(al, phi)
    assert s1_minor(mm) == pytest.approx(s1c, abs=1e-10)
    assert s2_minor(mm) == pytest.approx(s2c, abs=1e-10)
    if phi == np.pi:
        assert s1_minor(mm) < 0


def test_squeezed_s1_reduces_and_fails():
    for al in (0.5, 1.2):
        assert squeezed_s1(al, 0.0) == pytest.approx(closed_s1(al), abs=1e-14)
    assert squeezed_s1(2.0, 1.0) > 0.0  # witness fails despite entanglement
    assert squeezed_s1(0.4, 0.05) < 0.0


def test_squeezed_s1_matches_truncated_fock_moments():
    al, r = 0.6, 0.35
    n_cut = 40
    for theta in (0.0, 1.3):
        st = squeezed_binary_coherent(al, r, theta).payload
        rho = st.to_fock_density(n_cut, tail_tol=1e-9)
        prov = MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode="adapted")
        mm = sv_moment_matrix(prov, 2, qudit_dim=2)
        assert s1_minor(mm) == pytest.approx(squeezed_s1(al, r), abs=1e-7), theta


def test_mixed24_s1_values():
    assert mixed24_s1(0.0, 1.0) == pytest.approx(-0.5 * np.exp(-4.0), abs=1e-14)
    assert mixed24_s1(0.3, 0.0) == 0.0
    assert mixed24_s1(0.5, 2.5) > 0.0  # large amplitude defeats the determinant
    with pytest.raises(ValueError):
        mixed24_s1(1.2, 1.0)


def test_mixed24_s1_matches_generic_path():
    for p, al in [(0.0, 0.8), (0.35, 0.6), (0.5, 1.1), (1.0, 1.4)]:
        mm = sv_moment_matrix(SymbolicMomentProvider(mixed24(p, al).payload),
                              2, qudit_dim=2)
        assert s1_minor(mm) == pytest.approx(mixed24_s1(p, al), abs=1e-12)


def test_mixed24_region_boundary_crosses_half():
    from scipy.optimize import brentq

    # at p = 1/2 the zero crossing solves 1/4 = e^{-4 a^2}(1 - 3/8 + ...)
    axis = np.linspace(0.01, 1.5, 40)
    region = witness_region(lambda alpha: mixed24_s1(0.5, alpha), {"alpha": axis},
                            boundary_axis="alpha")
    assert len(region.boundary) == 1
    root = region.boundary[0]["alpha"]
    lhs = 0.25
    rhs = np.exp(-4 * root**2) * (1 - 1.5 * 0.25)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    k = int(np.searchsorted(axis, root))
    reference = brentq(lambda a: mixed24_s1(0.5, a), axis[k - 1], axis[k], xtol=BOUNDARY_XTOL)
    assert abs(root - reference) <= BOUNDARY_XTOL


def test_witness_region_boundary_terminates_where_an_ulp_exceeds_the_tolerance():
    # one ulp near 1e7 is 1.9e-9 > BOUNDARY_XTOL, so a plain hi - lo > xtol loop never ends
    root = 1e7 + 0.123456789
    region = witness_region(lambda x: x - root, {"x": [1e7 - 1.0, 1e7 + 1.0]},
                            boundary_axis="x")
    assert abs(region.boundary[0]["x"] - root) <= 1e-8


def test_optimal_alpha_matches_brentq():
    from scipy.optimize import brentq

    f = lambda a2: (2.0 - 8.0 * a2) * np.exp(4.0 * a2) - 1.0
    assert abs(optimal_alpha() - np.sqrt(brentq(f, 0.05, 0.25, xtol=1e-14))) <= 1e-14


def test_thermal_s1_and_threshold():
    assert thermal_s1(0.8, 0.6, 0.0) < 0.0
    n = thermal_threshold(0.8, 0.6)
    assert thermal_s1(0.8, 0.6, 0.999 * n) < 0.0 < thermal_s1(0.8, 0.6, 1.001 * n)
    assert thermal_threshold(1.0, 1.0) == np.inf
    a_opt = optimal_alpha()
    assert abs(a_opt - 0.44) < 0.005
    # optimum of the threshold curve itself
    grid = np.linspace(0.2, 0.8, 300)
    best = grid[np.argmax([thermal_threshold(a, 0.5) for a in grid])]
    assert abs(best - a_opt) < 0.005


def test_thermal_generic_path_matches_closed_form():
    params = ThermalChannelParams(0.55, 0.8)
    state = apply_thermal(binary_coherent(0.9).payload, params)
    mm = sv_moment_matrix(SymbolicMomentProvider(state), 2, qudit_dim=2)
    assert s1_minor(mm) == pytest.approx(thermal_s1(0.9, 0.55, 0.8), abs=1e-12)


def test_thermal_qutrit_moments_match_kraus_oracle():
    # d = 3 through the thermal route: exact dyad moments vs. truncated Kraus output
    state = apply_thermal(qutrit_qumode(0.6).payload, ThermalChannelParams(0.6, 0.2))
    exact = sv_moment_matrix(SymbolicMomentProvider(state), 2, qudit_dim=3)
    rho = state.truncated_density(default_cutoff(0.6))
    oracle = sv_moment_matrix(MatrixMomentProvider(rho, mode_subsystem=1), 2, qudit_dim=3)
    assert exact.index_map == oracle.index_map
    assert np.abs(exact.matrix - oracle.matrix).max() < 1e-7


def test_thermal_degree3_moments_match_kraus_oracle():
    # degree 3 reorders a^dag^r past a^q with up to t = 3 contractions
    state = apply_thermal(binary_coherent(0.9).payload, ThermalChannelParams(0.55, 0.4))
    exact = sv_moment_matrix(SymbolicMomentProvider(state), 3, qudit_dim=2)
    rho = state.truncated_density(default_cutoff(0.9))
    oracle = sv_moment_matrix(MatrixMomentProvider(rho, mode_subsystem=1), 3, qudit_dim=2)
    assert exact.matrix.shape == (25, 25)
    assert exact.index_map == oracle.index_map
    assert np.abs(exact.matrix - oracle.matrix).max() < 1e-6


def test_symbolic_provider_matches_fock_oracles_on_shared_levels():
    # the dyad sum runs over every branch pair, whether or not the levels differ
    state = shared_level_qubit()
    exact = sv_moment_matrix(SymbolicMomentProvider(state), 2, qudit_dim=2)
    oracle = sv_moment_matrix(MatrixMomentProvider(state.to_fock_density(40), mode_subsystem=1),
                              2, qudit_dim=2)
    assert np.abs(exact.matrix - oracle.matrix).max() < 1e-10
    thermal = apply_thermal(state, ThermalChannelParams(0.6, 0.2))
    exact = sv_moment_matrix(SymbolicMomentProvider(thermal), 2, qudit_dim=2)
    rho = thermal.truncated_density(default_cutoff(max(abs(k.alpha) for k in state.kets())))
    oracle = sv_moment_matrix(MatrixMomentProvider(rho, mode_subsystem=1), 2, qudit_dim=2)
    assert np.abs(exact.matrix - oracle.matrix).max() < 1e-7


def test_symbolic_provider_takes_coherent_kets_built_as_fock_or_photon_added():
    state = HybridState.pure(2, [(0.6, 0, SymbolicKet.fock(0)),
                                 (0.8, 1, SymbolicKet.photon_added(0, 0.9))])
    exact = sv_moment_matrix(SymbolicMomentProvider(state), 2, qudit_dim=2)
    oracle = sv_moment_matrix(MatrixMomentProvider(state.to_fock_density(40), mode_subsystem=1),
                              2, qudit_dim=2)
    assert np.abs(exact.matrix - oracle.matrix).max() < 1e-10


def _dyad_arrays_from_triples(state):
    """Dyad arrays by the two-step route: (weight, levels, amplitudes) triples, then unzipped.

    One state is a stack of one: each array is (1, dyads) and the channel (eta, n_th) is (2, 1, 1).
    """
    if isinstance(state, HybridState):
        state = ThermalHybridState(state, ThermalChannelParams(1.0, 0.0))
    triples = [(p * bi.c * np.conj(bj.c), (bi.m, bj.m), (bi.ket.alpha, bj.ket.alpha))
               for p, branches in state.base.terms for bi in branches for bj in branches]
    weights, levels, dyads = zip(*triples)
    m, mp = np.array(levels).T
    alpha, beta = np.array(dyads, dtype=complex).T
    channel = np.array([[[state.params.eta]], [[state.params.n_th]]])
    return np.array(weights)[None], m[None], mp[None], alpha[None], beta[None], channel


@pytest.mark.parametrize("state, d", [
    (binary_coherent(0.9).payload, 2),
    (qutrit_qumode(0.6).payload, 3),
    (mixed24(0.3, 1.1).payload, 2),
    (apply_thermal(binary_coherent(0.9).payload, ThermalChannelParams(0.55, 0.4)), 2),
    (apply_thermal(qutrit_qumode(0.6).payload, ThermalChannelParams(0.6, 0.2)), 3),
])
def test_symbolic_provider_dyads_match_the_triple_route_bit_for_bit(state, d):
    provider = SymbolicMomentProvider(state)
    reference = copy.copy(provider)
    (reference._weights, reference._m, reference._mp, reference._alpha, reference._beta,
     reference._channel) = _dyad_arrays_from_triples(state)
    for degree in (2, 3):
        assert np.array_equal(sv_moment_matrix(provider, degree, qudit_dim=d).matrix,
                              sv_moment_matrix(reference, degree, qudit_dim=d).matrix)


def test_symbolic_provider_checks_a_plain_state_once(monkeypatch):
    calls = []
    check = hyqent.channels.require_coherent
    counted = lambda state, what: calls.append(what) or check(state, what)
    monkeypatch.setattr(hyqent.channels, "require_coherent", counted)
    monkeypatch.setattr(hyqent.witness, "require_coherent", counted)
    SymbolicMomentProvider(binary_coherent(0.9).payload)
    assert len(calls) == 1
    thermal = apply_thermal(binary_coherent(0.9).payload, ThermalChannelParams(0.55, 0.4))
    SymbolicMomentProvider(thermal)
    assert len(calls) == 2  # the one check is the channel's own, at construction


def test_symbolic_provider_rejects_other_payloads():
    with pytest.raises(TypeError):
        SymbolicMomentProvider(DensityMatrix.from_ket(np.array([1.0, 0, 0, 0]), (2, 2)))
    with pytest.raises(UnsupportedKet):
        SymbolicMomentProvider(squeezed_binary_coherent(0.6, 0.3).payload)


def test_matrix_provider_is_freed_after_use():
    rho = binary_coherent(0.7).payload.to_fock_density(20)
    prov = MatrixMomentProvider(rho, mode_subsystem=1)
    sv_moment_matrix(prov, 2, qudit_dim=2)
    ref = weakref.ref(prov)
    del prov
    gc.collect()
    assert ref() is None


def test_symbolic_provider_is_freed_after_use():
    prov = SymbolicMomentProvider(binary_coherent(0.7).payload)
    sv_moment_matrix(prov, 2, qudit_dim=2)
    ref = weakref.ref(prov)
    del prov
    gc.collect()
    assert ref() is None


def _product_moment(rho_a, rho_b, a_word, b_word):
    """tr[rho_a a^dag^p a^q a^dag^r a^s] tr[rho_b ...] from explicit matrix powers."""
    mp, out = np.linalg.matrix_power, 1.0
    for rho, (p, q, r, s) in ((rho_a, a_word), (rho_b, b_word)):
        lo, hi = qudit_mode_operators(len(rho))
        out = out * np.trace(rho @ (mp(hi, p) @ mp(lo, q) @ mp(hi, r) @ mp(lo, s)))
    return out


def test_moment_matrix_matches_inline_reference_in_mixed_order():
    from conftest import random_density

    rng = np.random.default_rng(14)
    rho_a = random_density(rng, 5)

    def provider(aw, bw):
        return np.array([[_product_moment(rho_a, rho_b, a, b) for a, b in zip(ra, rb)]
                         for ra, rb in zip(aw, bw)])

    # degree and qudit_dim alternate so later calls read tables built by earlier ones
    cases = [(2, 2), (3, 3), (2, None), (3, 2), (2, 3), (3, None)] * 2
    for deg, d in cases:
        rho_b = random_density(rng, d or 4)
        idx = sv_multi_indices(deg, d)
        ref = np.array([[_product_moment(rho_a, rho_b, (u[1], u[0], v[0], v[1]),
                                         (v[3], v[2], u[2], u[3])) for v in idx] for u in idx])
        ref = (ref + ref.conj().T) / 2.0
        mm = sv_moment_matrix(provider, deg, qudit_dim=d)
        assert mm.index_map == tuple(idx)
        assert np.array_equal(mm.matrix, ref)


def test_lambda_provider_gets_shared_read_only_integer_words():
    received = []
    vacuum = lambda aw, bw: (received.append((aw, bw))
                             or np.where(aw.sum(-1) + bw.sum(-1) == 0, 1.0, 0.0))
    sizes = (13, 15, 13)
    for d in (2, 3, 2):
        sv_moment_matrix(vacuum, 2, qudit_dim=d)
    for n, (aw, bw) in zip(sizes, received):
        assert aw.shape == bw.shape == (n, n, 4) and aw.dtype.kind == bw.dtype.kind == "i"
        with pytest.raises(ValueError):
            aw[0, 0, 0] = 1
        with pytest.raises(ValueError):
            bw[0, 0, 0] = 1
    # a repeated degree and qudit_dim hands over the same arrays
    assert received[2][0] is received[0][0] and received[2][1] is received[0][1]


def _vacuum(aw, bw):
    """Moments of the vacuum times the qudit ground state: 1 on the empty word, else 0."""
    return np.where(aw.sum(-1) + bw.sum(-1) == 0, 1.0 + 0j, 0.0)


@pytest.mark.parametrize("state, d", [
    (binary_coherent(0.9).payload, 2),
    (qutrit_qumode(0.6).payload, 3),
    (mixed24(0.3, 1.1).payload, 2),
    (apply_thermal(binary_coherent(0.9).payload, ThermalChannelParams(0.55, 0.4)), 2),
    (apply_thermal(qutrit_qumode(0.6).payload, ThermalChannelParams(0.6, 0.2)), 3),
])
def test_rows_only_minors_are_the_full_matrix_minors(state, d):
    provider = SymbolicMomentProvider(state)
    full = sv_moment_matrix(provider, 2, qudit_dim=d)
    assert moment_minor(provider, S1_INDICES) == s1_minor(full)
    assert moment_minor(provider, S2_INDICES) == s2_minor(full)
    # a stack of the state and its base (on the identity channel) holds the same values in
    # its first row
    base = state.base if isinstance(state, ThermalHybridState) else state
    stacked = HybridState.join([base, base])
    if isinstance(state, ThermalHybridState):
        eta, n_th = state.params.eta, state.params.n_th
        stacked = ThermalHybridState(stacked, ThermalChannelParams(np.array([eta, 1.0]),
                                                                   np.array([n_th, 0.0])))
    stacked = SymbolicMomentProvider(stacked)
    assert moment_minor(stacked, S1_INDICES)[0] == s1_minor(full)
    assert moment_minor(stacked, S2_INDICES).shape == (2,)


@pytest.mark.parametrize("state", [
    binary_coherent(0.9).payload,
    apply_thermal(binary_coherent(0.9).payload, ThermalChannelParams(0.55, 0.4))])
def test_rows_only_minors_of_the_matrix_provider_are_its_full_matrix_minors(state):
    rho = (state.truncated_density(40) if isinstance(state, ThermalHybridState)
           else state.to_fock_density(40))
    provider = MatrixMomentProvider(rho, mode_subsystem=1)
    full = sv_moment_matrix(provider, 2, qudit_dim=2)
    assert moment_minor(provider, S1_INDICES) == pytest.approx(s1_minor(full), rel=1e-12,
                                                               abs=1e-15)
    assert moment_minor(provider, S2_INDICES) == pytest.approx(s2_minor(full), rel=1e-12,
                                                               abs=1e-15)


def test_rows_only_minors_check_their_entries():
    skew_at = lambda a, b: lambda aw, bw: _vacuum(aw, bw) + 1e-6j * (
        (aw == a).all(-1) & (bw == b).all(-1))
    # the (0,0,0,1) x (0,1,0,1) entry of S1 has a-word (0, 0, 0, 1) and b-word (1, 0, 0, 1)
    with pytest.raises(InconsistentMoments, match="Hermitian"):
        moment_minor(skew_at((0, 0, 0, 1), (1, 0, 0, 1)), S1_INDICES)
    # the same entry lies outside the S2 rows, which never compute it
    assert moment_minor(skew_at((0, 0, 0, 1), (1, 0, 0, 1)), S2_INDICES) == 0.0
    with pytest.raises(InconsistentMoments, match="normalization moment is"):
        moment_minor(lambda aw, bw: 2.0 * _vacuum(aw, bw), S2_INDICES)
    with pytest.raises(InconsistentMoments, match="Hermitian"):
        moment_minor(lambda aw, bw: np.full(aw.shape[:-1], np.nan), S1_INDICES)


def test_stacked_minors_raise_what_their_first_bad_point_raises():
    good = _vacuum
    half = lambda aw, bw: 0.5 * _vacuum(aw, bw)
    skew = lambda aw, bw: _vacuum(aw, bw) + 1e-6j * (aw.sum(-1) == 1)
    stack = lambda *points: lambda aw, bw: np.array([p(aw, bw) for p in points])
    with pytest.raises(InconsistentMoments, match=r"normalization moment is \(0.5"):
        moment_minor(stack(good, half, skew), S1_INDICES)
    with pytest.raises(InconsistentMoments, match="Hermitian"):
        moment_minor(stack(good, skew, half), S1_INDICES)
    assert moment_minor(stack(good, good), S1_INDICES).shape == (2,)


def test_rows_only_minors_get_shared_read_only_integer_words():
    received = []
    vacuum = lambda aw, bw: received.append((aw, bw)) or _vacuum(aw, bw)
    for rows in (S1_INDICES, S2_INDICES, S1_INDICES):
        moment_minor(vacuum, rows)
    for aw, bw in received:
        assert aw.shape == bw.shape == (3, 3, 4) and aw.dtype.kind == bw.dtype.kind == "i"
        with pytest.raises(ValueError):
            aw[0, 0, 0] = 1
        with pytest.raises(ValueError):
            bw[0, 0, 0] = 1
    assert received[2][0] is received[0][0] and received[2][1] is received[0][1]
    assert received[1][0] is not received[0][0]


def test_non_finite_minor_raises():
    # finite entries whose determinant overflows
    mm = MomentMatrix(np.diag([1.0, 1e200, 1e200]).astype(complex), ((0,), (1,), (2,)))
    with pytest.raises(NumericInconsistency, match="not finite"):
        principal_minor(mm, [0, 1, 2])
    assert principal_minor(mm, [0, 1]) == pytest.approx(1e200)
    # <a^dag a> = <b^dag b> = 1e200 on the diagonal of the S2 rows, zero elsewhere
    number = lambda w: (w == (1, 0, 0, 1)).all(-1)
    empty = lambda w: (w == 0).all(-1)
    huge = lambda aw, bw: _vacuum(aw, bw) + 1e200 * (number(aw) & empty(bw)
                                                     | empty(aw) & number(bw))
    with pytest.raises(NumericInconsistency, match="not finite"):
        moment_minor(huge, S2_INDICES)


def test_geometric_mixture_s1_series_and_bound():
    s1, bound = geometric_mixture_s1(0.1, 0.3)
    assert bound < 0.0 and s1 < 0.0
    assert geometric_mixture_s1(0.5, 0.0)[1] == 0.0
    with pytest.raises(ValueError):
        geometric_mixture_s1(1.2, 0.5)
    # partial sums are bracketed by substituting the closed-form bounds
    for x, al in [(0.2, 0.4), (0.5, 1.0), (0.75, 0.3)]:
        s1, bound = geometric_mixture_s1(x, al)
        lo = _s1_with_closed_sums(x, al, upper=True)
        hi = _s1_with_closed_sums(x, al, upper=False)
        assert lo - 1e-12 <= s1 <= hi + 1e-12
        assert bound == pytest.approx(hi, abs=1e-12)
        assert bound >= s1 - 1e-12  # bound < 0 implies s1 < 0


def _s1_with_closed_sums(x, al, upper):
    # replace sum sqrt(n) y^n by y/(1-y) (lower) or y/(1-y)^2 (upper)
    f = (lambda y: y / (1 - y) ** 2) if upper else (lambda y: y / (1 - y))
    a2 = al**2
    y = x * np.exp(-2 * a2)
    damp = np.exp(-2 * a2) * (1 - x) / (1 - y)
    b = al * (1 - x) / x * f(y)
    c = al * (1 - x) / x * f(x)
    return (2 * a2 / (1 - x) - 2 * damp * b * c - b * b - 2 * c * c
            - a2 / (1 - x) * damp**2) / 8


def _loop_sqrtn_sum(y):
    """sum_{n>=1} sqrt(n) y^n one term at a time for one y: the reference of the broadcast sum."""
    total, n, term = 0.0, 1, y
    while True:
        total += np.sqrt(n) * term
        n += 1
        term *= y
        if term * (n * (1.0 - y) + y) / (1.0 - y) ** 2 < SERIES_TOL:
            return total


def test_geometric_sums_and_bound_broadcast_bit_for_bit(monkeypatch, rng):
    ys = np.concatenate([[0.0, 1e-300, 0.02, 0.5, 0.98, 0.995], rng.uniform(0, 1, 20)])
    assert hyqent.witness._sqrtn_sum(ys).tobytes() == \
        np.array([_loop_sqrtn_sum(float(y)) for y in ys]).tobytes()
    # the reproduce arti-s1 grid, plus the alpha = 0 edge
    x, alpha = np.meshgrid(np.linspace(0.02, 0.98, 49), np.append(np.linspace(0.02, 1.5, 38), 0),
                           indexing="ij")
    partial, bound = geometric_mixture_s1(x[::4, ::3], alpha[::4, ::3])
    alone = np.array([geometric_mixture_s1(float(a), float(b))
                      for a, b in zip(x[::4, ::3].flat, alpha[::4, ::3].flat)])
    assert partial.tobytes() == alone[:, 0].reshape(partial.shape).tobytes()
    assert bound.tobytes() == alone[:, 1].reshape(bound.shape).tobytes()

    def no_series(y):
        raise AssertionError("the bound summed a series")
    monkeypatch.setattr(hyqent.witness, "_sqrtn_sum", no_series)
    bound = geometric_s1_bound(x, alpha)
    assert bound[::4, ::3].tobytes() == alone[:, 1].reshape(partial.shape).tobytes()
    alone = [geometric_s1_bound(float(a), float(b)) for a, b in zip(x.flat, alpha.flat)]
    assert bound.tobytes() == np.array(alone).reshape(x.shape).tobytes()
    assert type(geometric_s1_bound(0.3, 0.5)) is float
    with pytest.raises(ValueError, match="must lie in"):
        geometric_s1_bound(np.array([0.5, 1.0]), 0.3)


def test_geometric_series_s1_matches_truncated_oracle():
    """Direct SV computation on a deep truncation reproduces the series value."""
    from hyqent.catalog import geometric_mixture

    for x, al in [(0.3, 0.5), (0.6, 0.8)]:
        s1, _ = geometric_mixture_s1(x, al)
        deep, neglected = geometric_mixture(x, al).payload.truncate(220)
        assert neglected < 1e-12  # x^220 up to float rounding of the partial sum
        mm = sv_moment_matrix(SymbolicMomentProvider(deep), 2, qudit_dim=2)
        assert s1_minor(mm) == pytest.approx(s1, abs=1e-10)


def test_swap_witness_values(rng):
    from conftest import random_density
    from hyqent import tensor

    ra = DensityMatrix(random_density(rng, 3), (3,))
    rb = DensityMatrix(random_density(rng, 3), (3,))
    prod = tensor(ra, rb)
    assert swap_witness(prod) == pytest.approx(
        np.trace(ra.matrix @ rb.matrix).real, abs=1e-12)
    assert swap_witness(prod) >= 0.0
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert swap_witness(DensityMatrix.from_ket(singlet, (2, 2))) == pytest.approx(-1.0)
    mixed = DensityMatrix(np.eye(9, dtype=complex) / 9, (3, 3))
    assert swap_witness(mixed) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        swap_witness(DensityMatrix(np.eye(6, dtype=complex) / 6, (2, 3)))


def _loop_bisect(f, lo, hi, xtol):
    """The scalar bisection witness_region ran per cell: a root and its f(mid) call count."""
    lo_negative, steps = f(lo) < 0.0, 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + 4.0 * np.finfo(float).eps * abs(mid) or mid in (lo, hi):
            return mid, steps
        steps += 1
        lo, hi = (mid, hi) if (f(mid) < 0.0) == lo_negative else (lo, mid)


def _loop_region(det_fn, grid, boundary_axis):
    """witness_region one grid point and one boundary cell at a time; with each cell's steps."""
    names = list(grid.keys())
    axes = [np.asarray(grid[k], dtype=float) for k in names]
    values = np.empty(tuple(len(v) for v in axes))
    for pos in np.ndindex(*values.shape):
        values[pos] = det_fn(**{k: axes[i][pos[i]] for i, k in enumerate(names)})
    ax, boundary, steps = names.index(boundary_axis), [], []
    moved = np.moveaxis(values, ax, -1)
    for pos in np.ndindex(*moved.shape[:-1]):
        line = moved[pos]
        for k in range(len(line) - 1):
            if np.sign(line[k]) * np.sign(line[k + 1]) < 0:
                fixed = {names[i]: axes[i][pos[i if i < ax else i - 1]]
                         for i in range(len(names)) if i != ax}
                root, n = _loop_bisect(lambda t: det_fn(**{**fixed, boundary_axis: t}),
                                       axes[ax][k], axes[ax][k + 1], BOUNDARY_XTOL)
                boundary.append({**fixed, boundary_axis: root})
                steps.append(n)
    return values, boundary, steps


# cells of one width stop after one step count; uneven alpha axes make the counts differ,
# so each cell must stop on its own
@pytest.mark.parametrize("det_fn, grid, boundary_axis", [
    (lambda alpha, n_th: thermal_s1(alpha, 2 / 3, n_th),
     {"alpha": np.geomspace(0.05, 1.5, 30), "n_th": np.linspace(0.0, 0.3, 30)}, "alpha"),
    (lambda alpha, n_th: thermal_s1(alpha, 2 / 3, n_th),
     {"alpha": np.linspace(0.05, 1.5, 30), "n_th": np.linspace(0.0, 0.3, 30)}, "n_th"),
    (mixed24_s1, {"p": np.linspace(0.0, 1.0, 11),
                  "alpha": np.sort(np.random.default_rng(7).uniform(0.01, 1.5, 20))},
     "alpha"),
], ids=["thermal-alpha", "thermal-n_th", "mixed24-alpha"])
def test_witness_region_evaluates_its_grid_once_and_each_bisection_step_once(
        det_fn, grid, boundary_axis):
    calls = []
    region = witness_region(lambda **kw: calls.append(kw) or det_fn(**kw), grid,
                            boundary_axis=boundary_axis)
    values, boundary, steps = _loop_region(det_fn, grid, boundary_axis)
    assert steps and len(calls) <= 2 + max(steps)
    assert boundary_axis != "alpha" or min(steps) < max(steps)
    assert region.values.tobytes() == values.tobytes()
    assert np.array_equal(region.verdict, values < -1e-12)
    assert np.array_equal(region.inconclusive, np.abs(values) <= 1e-12)
    assert len(region.boundary) == len(boundary)
    for got, want in zip(region.boundary, boundary):
        assert list(got) == list(want)
        assert all(np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)


def test_witness_region_verdicts():
    region = witness_region(lambda alpha, n_th: thermal_s1(alpha, 2 / 3, n_th),
                            {"alpha": np.linspace(0.05, 1.0, 12),
                             "n_th": np.linspace(0.0, 0.3, 10)})
    assert region.verdict.shape == (12, 10)
    assert region.verdict.any() and not region.verdict.all()
    # verdict only where strictly below the inconclusive band
    assert not region.verdict[np.abs(region.values) <= 1e-12].any()
    empty = witness_region(lambda alpha: alpha**2 + 1.0,
                           {"alpha": np.linspace(0, 1, 5)})
    assert not empty.verdict.any()


def test_separable_coherent_product_all_minors_nonnegative():
    # fully CV product |alpha><alpha| x |beta><beta|, whole degree-2 matrix
    from itertools import combinations

    from hyqent import DensityMatrix, coherent_ket

    al, be = 0.7 - 0.3j, -0.4 + 0.5j
    n_cut = 14
    v = np.kron(coherent_ket(be, n_cut), coherent_ket(al, n_cut))
    rho = DensityMatrix.from_ket(v, (n_cut + 1, n_cut + 1))
    prov = MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode="embedded")
    mm = sv_moment_matrix(prov, 2)
    n = mm.matrix.shape[0]
    for size in (1, 2, 3):
        for rows in combinations(range(n), size):
            assert principal_minor(mm, list(rows)) >= -1e-10


def test_separable_soundness_minors(rng):
    """Random separable hybrid states never produce a negative minor."""
    sizes_checked = 0
    for _ in range(120):
        n_terms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(n_terms))
        terms = []
        for w in weights:
            q = random_ket(rng, 2)
            al = (rng.normal() + 1j * rng.normal()) * 0.7
            ket = SymbolicKet.coherent(al)
            terms.append((w, [(q[0], 0, ket), (q[1], 1, ket)]))
        state = HybridState(2, terms)
        mm = sv_moment_matrix(SymbolicMomentProvider(state), 2, qudit_dim=2)
        n = mm.matrix.shape[0]
        for size in (1, 2, 3):
            subs = [s for s in _subsets(n, size)]
            for s in subs[:: max(1, len(subs) // 20)]:
                assert principal_minor(mm, list(s)) >= -1e-8
        sizes_checked += 1
    assert sizes_checked == 120


def _subsets(n, k):
    from itertools import combinations

    return list(combinations(range(n), k))


# ---------------------------------------------------------------------------
# (shift, diagonal) word tables against dense matrix-power products


DEGREE_4_WORDS = np.array([w for w in itertools.product(range(5), repeat=4) if sum(w) <= 4])


@lru_cache(maxsize=None)
def _dense_word(dim, word):
    """hi^p lo^q hi^r lo^s on dim levels as a product of np.linalg.matrix_power factors."""
    mp = np.linalg.matrix_power
    lo, hi = qudit_mode_operators(dim)
    p, q, r, s = word
    return mp(hi, p) @ mp(lo, q) @ mp(hi, r) @ mp(lo, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 41), st.permutations(range(len(DEGREE_4_WORDS))))
@example(2, range(len(DEGREE_4_WORDS)))
@example(3, range(len(DEGREE_4_WORDS)))
@example(41, range(len(DEGREE_4_WORDS)))
def test_ladder_word_tables_are_the_matrix_power_products(dim, order):
    # every word of degree <= 4, raising past the top level included, in a drawn order
    words = DEGREE_4_WORDS[list(order)].reshape(7, 10, 4)
    shifts, diagonals, index = hyqent.witness._ladder_words(dim, words)
    assert index.shape == (7, 10) and diagonals.shape == (len(shifts), dim)
    rows = np.arange(dim) + shifts[:, None]
    inside = (rows >= 0) & (rows < dim)
    assert not diagonals[~inside].any()  # a level sent out of range carries 0
    k, n = np.nonzero(inside)
    dense = np.zeros((len(shifts), dim, dim), dtype=complex)
    dense[k, rows[k, n], n] = diagonals[k, n]
    got = dense[index]
    ref = np.array([_dense_word(dim, tuple(w)) for w in words.reshape(-1, 4)]).reshape(got.shape)
    if dim <= 3:
        assert np.array_equal(got, ref)
    else:
        assert (np.abs(got - ref) <= 1e-15 * np.abs(ref)).all()


@pytest.mark.parametrize("qudit_mode", ["adapted", "embedded"])
@pytest.mark.parametrize("mode_subsystem", [0, 1])
@pytest.mark.parametrize("degree, d", [(2, 2), (2, 3), (3, 2)])
def test_matrix_provider_matches_the_dense_word_contraction(rng, qudit_mode, mode_subsystem,
                                                             degree, d):
    n = 9
    dims = (n, d) if mode_subsystem == 0 else (d, n)
    rho = DensityMatrix(random_density(rng, n * d), dims)
    t = rho.matrix.reshape(dims + dims)
    t = t if mode_subsystem == 0 else t.transpose(1, 0, 3, 2)  # (mode, qudit, mode', qudit')
    # embedded: the qudit sits in the lowest d levels of a larger Fock space
    levels = d + (hyqent.witness.EMBED_PAD if qudit_mode == "embedded" else 0)

    def reference(a_words, b_words):
        return np.array([
            np.einsum("mqnp,nm,pq->", t, _dense_word(n, tuple(a)),
                      _dense_word(levels, tuple(b))[:d, :d])
            for a, b in zip(a_words.reshape(-1, 4), b_words.reshape(-1, 4))
        ]).reshape(a_words.shape[:-1])

    provider = MatrixMomentProvider(rho, mode_subsystem=mode_subsystem, qudit_mode=qudit_mode)
    got = sv_moment_matrix(provider, degree, qudit_dim=d)
    ref = sv_moment_matrix(reference, degree, qudit_dim=d)
    assert got.index_map == ref.index_map
    assert np.abs(got.matrix - ref.matrix).max() <= 1e-12
