import dataclasses
import math

import numpy as np
import pytest

from conftest import normalized_by_overlaps, pairwise_term_norm
from hyqent import (MODE, CutoffTooSmall, HybridState, SymbolicKet, SymbolicMomentProvider,
                    ThermalChannelParams, UnsupportedKet,
                    amplitude_damp, apply_thermal, coherent_ket, displace, gram_matrix, overlap,
                    overlaps, squeeze)
from hyqent import compression, kets
from hyqent.kets import ladder_sum
from hyqent.catalog import jcm_generate, project_to_cat, qubus_state, two_mode_cat


def test_overlap_with_itself_is_one():
    kets = [SymbolicKet.coherent(0.7 - 0.2j), SymbolicKet.fock(3),
            SymbolicKet.displaced_squeezed(0.5, 0.3, 1.0),
            SymbolicKet.photon_added(2, 0.6)]
    for k in kets:
        assert overlap(k, k) == pytest.approx(1.0, abs=1e-12)


def test_overlaps_match_fock_numerics(rng):
    # displaced-squeezed pairs at equal squeezing, phases included
    for _ in range(4):
        r, th = 0.5 * rng.random(), 2 * np.pi * rng.random()
        a1 = rng.normal() + 1j * rng.normal()
        a2 = rng.normal() + 1j * rng.normal()
        k1 = SymbolicKet.displaced_squeezed(a1, r, th)
        k2 = SymbolicKet.displaced_squeezed(a2, r, th)
        num = np.vdot(k1.to_fock(70, tail_tol=1e-7), k2.to_fock(70, tail_tol=1e-7))
        assert abs(num - overlap(k1, k2)) < 1e-7
    # photon-added pairs and mixed kinds
    k1 = SymbolicKet.photon_added(2, 0.7 + 0.2j)
    k2 = SymbolicKet.photon_added(1, -0.4 + 0.6j)
    k3 = SymbolicKet.coherent(0.5 - 0.1j)
    k4 = SymbolicKet.fock(3)
    vs = {k: k.to_fock(50) for k in (k1, k2, k3, k4)}
    for bra, ket in [(k1, k2), (k1, k3), (k3, k1), (k4, k3), (k3, k4), (k4, k1), (k2, k4)]:
        assert abs(np.vdot(vs[bra], vs[ket]) - overlap(bra, ket)) < 1e-12


def test_unequal_squeezing_is_unsupported():
    k1 = SymbolicKet.displaced_squeezed(0.5, 0.3)
    k2 = SymbolicKet.displaced_squeezed(0.5, 0.6)
    with pytest.raises(UnsupportedKet):
        overlap(k1, k2)


def test_squeezed_coherent_conversion():
    # S(xi) D(alpha) |0> re-expressed as a displaced squeezed vacuum
    r, th, al = 0.4, 1.1, 0.8 - 0.5j
    n_cut = 60
    direct = (squeeze(th, r, n_cut) @ displace(al, n_cut))[:, 0]
    converted = SymbolicKet.squeezed_coherent(al, r, th).to_fock(n_cut, tail_tol=1e-7)
    assert np.linalg.norm(direct - converted) < 1e-8


def test_displaced_squeezed_conversion():
    # D(alpha) S(xi) |0> stored as S(xi) |beta>: the one alpha -> beta conversion
    r, th, al = 0.4, 1.1, 0.8 - 0.5j
    n_cut = 60
    direct = (displace(al, n_cut) @ squeeze(th, r, n_cut))[:, 0]
    converted = SymbolicKet.displaced_squeezed(al, r, th).to_fock(n_cut, tail_tol=1e-7)
    assert np.linalg.norm(direct - converted) < 1e-8


def test_one_descriptor_per_state():
    # every ket is S(xi) a^dag^k |alpha> / norm, so every constructor of one state agrees
    assert [f.name for f in dataclasses.fields(SymbolicKet)] == ["k", "alpha", "r", "theta"]
    vac = SymbolicKet.vacuum()
    assert SymbolicKet.coherent(0) == vac == SymbolicKet.fock(0) == SymbolicKet.photon_added(0, 0)
    for a in (0.5, -0.3 + 0.8j):
        assert SymbolicKet.photon_added(0, a) == SymbolicKet.coherent(a)
        assert SymbolicKet.displaced_squeezed(a, 0, 1.3) == SymbolicKet.coherent(a)
        assert SymbolicKet.squeezed_coherent(a, 0, 1.3) == SymbolicKet.coherent(a)
    # one Gram row per distinct state
    state = HybridState.pure(2, [(0.6, 0, SymbolicKet.fock(0)), (0.8, 1, vac)])
    assert state.kets() == [vac]
    [(_, _, coeffs)] = compression.site_expansions(state)
    assert coeffs.matrix.shape == (1, 1)


@pytest.mark.parametrize("ket, kind", [
    (SymbolicKet.coherent(0.5), kets.COHERENT), (SymbolicKet.fock(0), kets.COHERENT),
    (SymbolicKet.fock(2), kets.FOCK), (SymbolicKet.photon_added(1, 0.5), kets.PHOTON_ADDED),
    (SymbolicKet.displaced_squeezed(0.5, 0.3), kets.DISPLACED_SQUEEZED),
    (SymbolicKet.squeezed_coherent(0.0, 0.3), kets.DISPLACED_SQUEEZED)])
def test_kind_is_read_from_the_ladder_form(ket, kind):
    assert ket.kind == kind


def test_unsqueezed_displaced_squeezed_ket_pairs_with_coherent_kets():
    got = overlap(SymbolicKet.displaced_squeezed(0.5, 0), SymbolicKet.coherent(-0.5))
    assert abs(got - np.exp(-0.5)) < 1e-15


def test_ladder_order_above_cutoff_raises():
    for ket in (SymbolicKet.photon_added(5, 0.01), SymbolicKet.fock(4)):
        with pytest.raises(ValueError, match="above cutoff 3"):
            ket.to_fock(3)


def test_photon_added_ket_with_most_weight_above_the_cutoff_raises():
    # a^dag^10 |1> keeps only 7 % of its weight on levels 0..11
    with pytest.raises(CutoffTooSmall, match="above cutoff 11"):
        SymbolicKet.photon_added(10, 1.0).to_fock(11)


@pytest.mark.parametrize("alpha, n_cut", [(1.0, 40), (2.0, 60)])
def test_squeezed_to_fock_matches_the_expm_squeezer_far_above_the_cutoff(alpha, n_cut):
    r, theta = 0.5, np.pi
    ref = (squeeze(theta, r, 250) @ coherent_ket(alpha, 250))[:n_cut + 1]
    got = SymbolicKet.squeezed_coherent(alpha, r, theta).to_fock(n_cut)
    assert np.abs(got - ref / np.linalg.norm(ref)).max() < 1e-13


@pytest.mark.parametrize("build", [
    lambda ket: SymbolicKet.photon_added(2.7, 0.5), lambda ket: SymbolicKet.fock(0.5),
    lambda ket: HybridState(2, [(1.0, [(1.0, 1.7, ket)])]),
    lambda ket: HybridState(2.9, [(1.0, [(1.0, 1, ket)])])],
    ids=["ladder-order", "fock-index", "qudit-level", "qudit-dimension"])
def test_non_integral_orders_levels_and_dimensions_raise(build):
    with pytest.raises(ValueError, match="integer|in-range level"):
        build(SymbolicKet.coherent(0.5))


def test_integral_floats_pass_as_orders_levels_and_dimensions():
    ket = SymbolicKet.coherent(0.5)
    assert SymbolicKet.photon_added(2.0, 0.5) == SymbolicKet.photon_added(2, 0.5)
    state = HybridState(2.0, [(1.0, [(1.0, 1.0, ket)])])
    assert state.sites == (2, MODE) and state.terms[0].branches[0].m == 1


def test_fock_ket_to_fock_is_exactly_the_basis_vector():
    # a^dag^n |0> renormalized: dividing by the norm must leave exactly 1, not 1 - 1 ulp
    for n in range(60):
        assert np.array_equal(SymbolicKet.fock(n).to_fock(60), np.eye(61)[n]), n


def test_squeezed_ket_cutoff_holds_its_mean_amplitude():
    # S(0.5 e^{i pi})|2> has <a> = 2 e^{0.5} ~ 3.30: |<a>> leaves tail weight ~3e-5
    # beyond 26, while |2> and the squeezed vacuum fit below 1e-8
    mean = 2 * np.exp(0.5)
    for ket in (SymbolicKet.squeezed_coherent(2, 0.5, np.pi),
                SymbolicKet.displaced_squeezed(mean, 0.5, np.pi)):
        with pytest.raises(CutoffTooSmall):
            ket.to_fock(26)
        v = ket.to_fock(60)
        assert abs(np.vdot(v, v) - 1) < 1e-10
        assert abs(np.vdot(v, np.diag(np.sqrt(np.arange(1, 61)), 1) @ v) - mean) < 1e-6


def test_hybrid_state_validation():
    ket = SymbolicKet.coherent(1.0)
    with pytest.raises(ValueError):
        HybridState(2, [(0.5, [(1.0, 0, ket)])])  # probabilities sum to 0.5
    with pytest.raises(ValueError):
        HybridState(2, [(1.0, [(1.0, 0, ket), (0.1, 0, ket)])])  # one level and ket: norm^2 1.21
    with pytest.raises(ValueError):
        HybridState(2, [(1.0, [(0.9, 0, ket)])])  # coefficients not normalized
    with pytest.raises(ValueError):
        HybridState(2, [(1.0, [(1.0, 3, ket)])])  # level out of range
    # branches may share a level when the term is normalized through its overlaps
    raw = [(0.7, (0, ket)), (0.4j, (0, SymbolicKet.coherent(-0.5))),
           (0.5, (1, SymbolicKet.photon_added(1, 0.3)))]
    branches = normalized_by_overlaps((2, MODE), raw)
    assert HybridState.pure((2, MODE), branches).norm_squared() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        HybridState.pure((2, MODE), [(c * np.sqrt(1 + 1e-9), v) for c, v in branches])


def test_term_norm_reads_overlaps_only_for_shared_levels(monkeypatch):
    calls, family_overlaps = [], kets._family_overlaps

    def counted(family):
        calls.append(family)
        return family_overlaps(family)
    monkeypatch.setattr(kets, "_family_overlaps", counted)
    a, b = SymbolicKet.coherent(0.8), SymbolicKet.coherent(-0.8)
    distinct = [(0.6, (0, a)), (0.8, (1, b))]
    assert kets.term_norm((2, MODE), distinct) == pytest.approx(1.0, abs=1e-15)
    assert not calls
    shared = [(0.6, (0, a)), (0.8, (0, b))]
    assert kets.term_norm((2, MODE), shared) == pytest.approx(
        1.0 + 2 * 0.48 * np.exp(-2 * 0.64), abs=1e-15)
    assert len(calls) == 1
    # on a mode-only layout every pair counts
    assert kets.term_norm((MODE,), [(c, (k,)) for c, (_, k) in distinct]) == pytest.approx(
        1.0 + 2 * 0.48 * np.exp(-2 * 0.64), abs=1e-15)


def test_to_fock_density_dims():
    st = HybridState.pure(2, [(1 / np.sqrt(2), 0, SymbolicKet.coherent(0.8)),
                              (1 / np.sqrt(2), 1, SymbolicKet.coherent(-0.8))])
    rho = st.to_fock_density(18)
    assert rho.dims == (2, 19)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-8


def test_shorthand_is_the_qudit_mode_layout():
    ka, kb = SymbolicKet.coherent(0.6), SymbolicKet.coherent(-0.6)
    short = HybridState.pure(2, [(0.6, 0, ka), (0.8, 1, kb)])
    full = HybridState.pure((2, MODE), [(0.6, (0, ka)), (0.8, (1, kb))])
    assert short.sites == full.sites == (2, MODE)
    assert short.terms == full.terms
    b = short.terms[0][1][1]
    assert (b.c, b.m, b.ket) == (0.8, 1, kb)
    assert short.qudit_dim == 2


def test_multi_site_validation():
    ket = SymbolicKet.coherent(1.0)
    with pytest.raises(ValueError):
        HybridState.pure((MODE, 2), [(1.0, (ket,))])  # one value per site
    with pytest.raises(ValueError):
        HybridState.pure((MODE, 2), [(1.0, (0, 1))])  # mode sites hold kets
    with pytest.raises(ValueError):
        HybridState.pure((MODE, 2), [(1.0, (ket, 2))])  # level out of range
    with pytest.raises(ValueError):
        HybridState.pure((MODE, 2), [(0.6, (ket, 0)), (0.8, (ket, 0))])  # norm^2 1.96
    # qumode-only layouts are normalized through the overlaps
    cat = two_mode_cat(0.8, 1.0).payload
    assert cat.sites == (MODE, MODE)
    assert cat.norm_squared() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("payload", [two_mode_cat(0.7, 1.0).payload,
                                     qubus_state(1.0, 0.2, 0.9).payload,
                                     project_to_cat(jcm_generate(1.0, 0.3).payload).payload],
                         ids=["two-mode-cat", "qubus", "cat-projection"])
def test_qudit_mode_functions_reject_other_layouts(payload):
    calls = [lambda: payload.qudit_dim,
             lambda: SymbolicMomentProvider(payload),
             lambda: amplitude_damp(payload, 0.5),
             lambda: apply_thermal(payload, ThermalChannelParams(0.5, 0.1)),
             lambda: project_to_cat(payload),
             lambda: payload.to_fock_density(10)]
    for call in calls:
        with pytest.raises(TypeError, match="qudit-qumode"):
            call()


def _pairwise_norm_squared(state):
    """Reference: one scalar overlap per mode site and branch pair of each term."""
    return sum(p * pairwise_term_norm(state.sites, branches) for p, branches in state.terms)


def _random_mixture(rng, sites, n_terms=3, shared=False):
    """Mixture of random branches; mode sites hold coherent or photon-added kets.

    With shared, both branches of a term sit on level 0 of every qudit site
    and are normalized through their ket overlaps.
    """
    pool = [SymbolicKet.coherent(a) for a in rng.normal(size=3) + 1j * rng.normal(size=3)]
    pool += [SymbolicKet.photon_added(k, a) for k, a in
             zip((1, 2), 0.7 * (rng.normal(size=2) + 1j * rng.normal(size=2)))]
    p = rng.random(n_terms)
    terms = []
    for weight in p / p.sum():
        levels = np.zeros(2, dtype=int) if shared else rng.permutation(2)
        branches = []
        for b in range(2):
            values = tuple(pool[rng.integers(len(pool))] if s == MODE else int(levels[b])
                           for s in sites)
            branches.append((rng.normal() + 1j * rng.normal(), values))
        if shared:
            terms.append((weight, normalized_by_overlaps(sites, branches)))
            continue
        c = np.array([c for c, _ in branches])
        c /= np.linalg.norm(c)
        terms.append((weight, [(ci, v) for ci, (_, v) in zip(c, branches)]))
    return HybridState(sites, terms)


@pytest.mark.parametrize("payload", ["two-mode-cat", "qubus", "qudit-qumode", "qudit-two-modes",
                                     "modes-only", "qudit-qumode-shared",
                                     "qudit-two-modes-shared"])
def test_norm_squared_matches_pairwise_overlaps(rng, payload):
    for _ in range(3):
        if payload == "two-mode-cat":
            state = two_mode_cat(*rng.uniform(0.2, 1.5, size=2)).payload
        elif payload == "qubus":
            state = qubus_state(*rng.uniform(0.2, 1.2, size=3)).payload
        else:
            sites = {"qudit-qumode": (2, MODE), "qudit-two-modes": (MODE, 2, MODE),
                     "modes-only": (MODE, MODE)}[payload.removesuffix("-shared")]
            state = _random_mixture(rng, sites, shared=payload.endswith("-shared"))
        assert state.norm_squared() == pytest.approx(_pairwise_norm_squared(state), abs=1e-14)


def _ladder_family(rng, kind):
    """Random kets: coherent mixed with Fock kets, photon-added (k <= 3) kets or both.

    A displaced-squeezed ket against any other kind has no closed-form
    overlap, so no ladder family holds one.
    """
    kets = [SymbolicKet.coherent(a) for a in 1.2 * (rng.normal(size=4) + 1j * rng.normal(size=4))]
    if kind in ("fock", "mixed"):
        kets += [SymbolicKet.fock(n) for n in (0, 1, 3, 3, 6)]
    if kind in ("photon-added", "mixed"):
        kets += [SymbolicKet.photon_added(k, a) for k, a in
                 zip((1, 2, 3, 3, 0), 0.8 * (rng.normal(size=5) + 1j * rng.normal(size=5)))]
    return [kets[i] for i in rng.permutation(len(kets))]


def _squeezed_family(rng):
    r, theta = 0.4 * rng.random(), 2 * np.pi * rng.random()
    return [SymbolicKet.displaced_squeezed(a, r, theta)
            for a in 0.8 * (rng.normal(size=5) + 1j * rng.normal(size=5))]


@pytest.mark.parametrize("family", ["fock", "photon-added", "mixed", "squeezed"])
def test_gram_matrix_matches_pairwise_and_fock_overlaps(rng, family):
    for _ in range(3):
        kets = _squeezed_family(rng) if family == "squeezed" else _ladder_family(rng, family)
        gram = gram_matrix(kets)
        assert np.array_equal(gram, gram.conj().T)
        assert np.all(np.diag(gram) == 1.0)
        pairwise = np.array([[overlap(a, b) for b in kets] for a in kets])
        assert np.abs(gram - pairwise).max() < 1e-14
        assert np.abs(overlaps(kets[:3], kets) - pairwise[:3]).max() < 1e-14
        vectors = np.array([k.to_fock(60) for k in kets])
        assert np.abs(gram - vectors.conj() @ vectors.T).max() < 1e-10
        fock = [i for i, k in enumerate(kets) if k.kind == "fock"]
        for i in fock:
            for j in fock:
                assert gram[i, j] == float(kets[i].k == kets[j].k)


@pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
def test_ladder_sum_matches_explicit_double_loop(rng, c):
    def explicit(k, l, x, y):
        return sum(math.factorial(t) * math.comb(k, t) * math.comb(l, t) * c**t
                   * x ** (l - t) * y ** (k - t) for t in range(min(k, l) + 1))

    k, l = rng.integers(0, 9, size=(2, 10))
    k[:2], l[:2] = (3, 0), (5, 8)  # unequal orders where x or y vanishes
    x, y = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
    x[0] = y[1] = 0.0
    # one broadcast call over every (i, j): t runs past min(k, l) for most pairs,
    # so the exponent guard meets 0 ** (negative) whenever x or y is 0
    got = ladder_sum(k[:, None], l[None, :], x[:, None], y[None, :], c)
    ref = np.array([[explicit(int(k[i]), int(l[j]), complex(x[i]), complex(y[j]))
                     for j in range(10)] for i in range(10)])
    assert got.shape == (10, 10)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_pairs_without_closed_form_still_raise():
    squeezed = SymbolicKet.displaced_squeezed(0.5, 0.3)
    for bras, kets in [([squeezed], [SymbolicKet.coherent(0.5)]),
                       ([SymbolicKet.coherent(0.5)], [squeezed]),
                       ([squeezed], [SymbolicKet.displaced_squeezed(0.2, 0.6)]),
                       ([SymbolicKet.fock(167)], [SymbolicKet.fock(167)])]:
        with pytest.raises(UnsupportedKet):
            overlaps(bras, kets)
        with pytest.raises(UnsupportedKet):
            gram_matrix(bras + kets)


def test_high_fock_indices_keep_exact_orthonormality():
    kets = [SymbolicKet.fock(n) for n in (0, 98, 99, 166)]
    assert np.array_equal(overlaps(kets, kets), np.eye(4))
    # <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    expect = np.exp(-50.0 + 166 * np.log(10.0) - 0.5 * math.lgamma(167))
    assert overlap(kets[-1], SymbolicKet.coherent(10.0)) == pytest.approx(expect, rel=1e-12)


def _mp_overlap(k, alpha, l, beta):
    """<a^dag^k alpha | a^dag^l beta> of normalized kets, by the pairing sum at 120 digits."""
    import mpmath as mp

    def pairing(k, l, x, y):
        return mp.fsum(mp.factorial(t) * mp.binomial(k, t) * mp.binomial(l, t)
                       * x ** (l - t) * y ** (k - t) for t in range(min(k, l) + 1))

    with mp.workdps(120):
        a, b = mp.mpc(alpha), mp.mpc(beta)
        gauss = mp.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + mp.conj(a) * b)
        norm = pairing(k, k, mp.conj(a), a).real * pairing(l, l, mp.conj(b), b).real
        return complex(gauss * pairing(k, l, mp.conj(a), b) / mp.sqrt(norm))


def test_high_order_overlaps_match_120_digit_reference():
    rng = np.random.default_rng(17)
    pairs = []
    while len(pairs) < 25:  # a third of the pairs with -conj(alpha) beta > 0
        k, l = (int(n) for n in rng.integers(0, 161, 2))
        a = rng.uniform(0, 8) * np.exp(2j * np.pi * rng.random())
        b = rng.uniform(0, 8) * np.exp(2j * np.pi * rng.random())
        if len(pairs) % 3 == 0:
            b = -a * rng.uniform(0.5, 1.0) * np.exp(0.1j * rng.normal())
        pairs.append((k, a, l, b))
    assert sum((-np.conj(a) * b).real > 0 for _, a, _, b in pairs) >= len(pairs) / 4
    pairs += [(160, 4.0, 160, 4.0), (140, 8.0, 139, 7.92), (100, 6.0, 100, -6.0)]
    for k, a, l, b in pairs:
        got = overlap(SymbolicKet.photon_added(k, a), SymbolicKet.photon_added(l, b))
        ref = _mp_overlap(k, a, l, b)
        assert np.isfinite(got) and abs(got) <= 1 + 1e-12
        assert abs(got - ref) <= 1e-12
        assert abs(ref) <= 1e-300 or abs(got - ref) <= 1e-10 * abs(ref)
    pa = SymbolicKet.photon_added
    assert overlap(pa(160, 4.0), pa(160, 4.0)) == pytest.approx(1.0, abs=1e-15)
    assert overlap(pa(140, 8.0), pa(139, 7.92)) == pytest.approx(0.98657608162599, abs=1e-13)
    assert overlap(pa(100, 6.0), pa(100, -6.0)) == pytest.approx(-5.450593e-70, rel=1e-6)
    assert gram_matrix([pa(140, 8.0), pa(139, 7.92)])[0, 1] == pytest.approx(
        0.98657608162599, abs=1e-13)


def test_family_beyond_the_double_range_raises():
    # the self-norm L_166(-10^4) of a^dag^166 |100> exceeds the double range
    with pytest.raises(UnsupportedKet):
        gram_matrix([SymbolicKet.photon_added(166, 100.0), SymbolicKet.coherent(1.0)])
    with pytest.raises(UnsupportedKet):
        overlap(SymbolicKet.photon_added(166, 100.0), SymbolicKet.coherent(1.0))


def test_high_order_to_fock_is_exact():
    ket, lower = SymbolicKet.photon_added(160, 4.0), SymbolicKet.photon_added(159, 4.0)
    v, w = ket.to_fock(421), lower.to_fock(421)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert abs(np.vdot(v, w) - overlap(ket, lower)) <= 1e-12


def test_nan_probability_is_rejected():
    with pytest.raises(ValueError):
        HybridState(2, [(float("nan"), [(1.0, 0, SymbolicKet.coherent(0.5))])])


def test_high_order_branches_on_one_level_are_checked():
    a, b = SymbolicKet.photon_added(160, 4.0), SymbolicKet.photon_added(159, 4.0)
    with pytest.raises(ValueError):
        HybridState(2, [(1.0, [(2 ** -0.5, 0, a), (2 ** -0.5, 0, b)])])
    c = 1 / math.sqrt(2 + 2 * overlap(a, b).real)
    state = HybridState(2, [(1.0, [(c, 0, a), (c, 0, b)])])
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
