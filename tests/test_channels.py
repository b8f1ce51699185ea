from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_ket, shared_level_qubit
from hyqent import (DensityMatrix, HybridState, SymbolicKet, ThermalChannelParams,
                    ThermalHybridState, UnsupportedKet, amplitude_damp, apply_kraus, apply_thermal,
                    beamsplit, choi_state, coherent_ket, compress,
                    concurrence, concurrence_evolution_check,
                    make_kraus_set, negativity, negativity_evolution_check,
                    qubit_loss_kraus, thermal_dyad_moments, thermal_kraus)
from hyqent import cli
from hyqent.catalog import binary_coherent, squeezed_binary_coherent, thermal_output


def test_amplitude_damp_lossless_and_single_ket():
    st = binary_coherent(1.0).payload
    assert amplitude_damp(st, 1.0) is st
    single = HybridState.pure(2, [(1.0, 0, SymbolicKet.coherent(1.2))])
    out = amplitude_damp(single, 0.5)
    kets = out.kets()
    assert len(kets) == 1
    assert kets[0].alpha == pytest.approx(np.sqrt(0.5) * 1.2)


def test_amplitude_damp_two_projector_weights():
    # (1 +- tau)/2 holds for any coefficients of an opposite pair, balanced or not,
    # and down to amplitudes where 1 - tau is of order 1e-14
    unbalanced = (np.sqrt(0.3), np.sqrt(0.7))
    for eta, al, state in [(0.7, 1.1, binary_coherent(1.1).payload),
                           (0.7, 1.1, _opposite_pair(*unbalanced, 1.1)),
                           (0.5, 1e-7, _opposite_pair(*unbalanced, 1e-7))]:
        out = amplitude_damp(state, eta)
        tau = np.exp(-2 * (1 - eta) * al**2)
        assert len(out.terms) == 2
        weights = sorted(p for p, _ in out.terms)
        assert weights == pytest.approx([(1 - tau) / 2, (1 + tau) / 2], abs=1e-12)
        for _, branches in out.terms:
            for b in branches:
                assert abs(b.ket.alpha) == pytest.approx(np.sqrt(eta) * al)


def _opposite_pair(c0, c1, al):
    return HybridState.pure(2, [(c0, 0, SymbolicKet.coherent(al)),
                                (c1, 1, SymbolicKet.coherent(-al))])


def test_amplitude_damp_against_beamsplitter_oracle():
    """Independent route: couple to vacuum with a beam splitter and trace."""
    eta, al = 0.6, 0.9
    n_cut = 20
    theta = np.arccos(np.sqrt(eta))
    u = beamsplit(theta, n_cut=n_cut)
    dim = n_cut + 1
    psi = (np.kron([1, 0], np.kron(coherent_ket(al, n_cut), coherent_ket(0, n_cut)))
           + np.kron([0, 1], np.kron(coherent_ket(-al, n_cut), coherent_ket(0, n_cut)))) / np.sqrt(2)
    psi = np.kron(np.eye(2), u) @ psi
    full = np.outer(psi, psi.conj()).reshape(2, dim, dim, 2, dim, dim)
    oracle = np.einsum("aijbkj->aibk", full).reshape(2 * dim, 2 * dim)
    out = amplitude_damp(binary_coherent(al).payload, eta)
    ours = out.to_fock_density(n_cut).matrix
    assert np.abs(ours - oracle).max() < 1e-8


def test_amplitude_damp_takes_coherent_kets_built_as_fock_or_photon_added():
    # fock(0) is the vacuum and photon_added(0, alpha) is |alpha>: the exact route applies
    eta, al, n_cut = 0.6, 0.9, 20
    state = HybridState.pure(2, [(np.sqrt(0.5), 0, SymbolicKet.fock(0)),
                                 (np.sqrt(0.5), 1, SymbolicKet.photon_added(0, al))])
    u = beamsplit(np.arccos(np.sqrt(eta)), n_cut=n_cut)
    dim = n_cut + 1
    vac = coherent_ket(0, n_cut)
    psi = (np.kron([1, 0], np.kron(vac, vac))
           + np.kron([0, 1], np.kron(coherent_ket(al, n_cut), vac))) / np.sqrt(2)
    psi = np.kron(np.eye(2), u) @ psi
    full = np.outer(psi, psi.conj()).reshape(2, dim, dim, 2, dim, dim)
    oracle = np.einsum("aijbkj->aibk", full).reshape(2 * dim, 2 * dim)
    ours = amplitude_damp(state, eta).to_fock_density(n_cut).matrix
    assert np.abs(ours - oracle).max() < 1e-8


def test_amplitude_damp_general_term_route_matches_special_case():
    # oracle: exact dyad algebra rho'_ij = c_i c_j* <env_j|env_i> |se a_i><se a_j|,
    # summed over the terms of a mixture
    c3 = np.array([0.5, 0.6j, np.sqrt(1 - 0.25 - 0.36)])
    cases = [  # (eta, d, terms of (p, [(c, m, alpha)]))
        (0.55, 2, [(1.0, [(np.sqrt(0.3), 0, 0.8), (np.sqrt(0.7), 1, -0.8)])]),
        (0.3, 2, [(1.0, [(1j, 1, 1.2 - 0.3j)])]),
        (0.6, 2, [(1.0, [(np.sqrt(0.4), 0, 0.9), (np.sqrt(0.6), 1, 0.9 + 1e-7)])]),
        (0.4, 3, [(1.0, list(zip(c3, range(3), [0.6, 0.6j, -0.5 + 0.2j])))]),
        (0.3, 3, [(1.0, list(zip(c3, range(3), [0.7, 0.7, -0.7])))]),
        (0.0, 3, [(1.0, list(zip(c3, range(3), [0.7, -0.7, 0.4j])))]),
        (0.45, 3, [(0.25, [(1.0, 2, 0.5)]),
                   (0.75, [(np.sqrt(0.5), 0, 1.0), (-np.sqrt(0.5), 2, -1.0 + 1e-8)])]),
        # branches sharing a level, normalized through their overlaps
        (0.6, 2, [(1.0, [(c, m, k.alpha) for c, (m, k) in shared_level_qubit().terms[0][1]])]),
    ]
    n_cut = 20
    for eta, d, terms in cases:
        st = HybridState(d, [(p, [(c, m, SymbolicKet.coherent(a)) for c, m, a in bs])
                             for p, bs in terms])
        out = amplitude_damp(st, eta)
        ours = compress(out)
        rho = np.zeros((d * (n_cut + 1),) * 2, dtype=complex)
        for p, bs in terms:
            for ci, mi, ai in bs:
                for cj, mj, aj in bs:
                    ei, ej = np.sqrt(1 - eta) * ai, np.sqrt(1 - eta) * aj
                    env = np.exp(-abs(ei) ** 2 / 2 - abs(ej) ** 2 / 2 + np.conj(ej) * ei)
                    block = np.outer(coherent_ket(np.sqrt(eta) * ai, n_cut),
                                     coherent_ket(np.sqrt(eta) * aj, n_cut).conj())
                    dyad = np.zeros((d, d))
                    dyad[mi, mj] = 1
                    rho += p * ci * np.conj(cj) * env * np.kron(dyad, block)
        oracle = out.to_fock_density(n_cut).matrix
        assert np.abs(oracle - rho).max() < 1e-10
        assert abs(np.trace(ours.matrix) - 1.0) < 1e-10


def test_apply_thermal_names_itself_on_non_coherent_kets():
    with pytest.raises(UnsupportedKet, match="thermal"):
        apply_thermal(squeezed_binary_coherent(0.5, 0.3).payload, ThermalChannelParams(0.5, 0.1))
    # the check belongs to the output type, so a direct construction cannot skip it
    fock = HybridState(2, [(1.0, [(1.0, 0, SymbolicKet.fock(2))])])
    with pytest.raises(UnsupportedKet, match="thermal"):
        ThermalHybridState(fock, ThermalChannelParams(1.0, 0.0))


def test_amplitude_damp_concurrence_monotone_in_loss():
    al = 1.0
    values = [concurrence(compress(amplitude_damp(binary_coherent(al).payload, eta)))
              for eta in np.linspace(1.0, 0.05, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.05, 2.5),
       st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8, unique=True).map(sorted))
def test_damped_concurrence_does_not_fall_as_eta_rises(alpha, etas):
    # the stacked path: one sweep row per eta at fixed alpha, in increasing eta
    _, rows = cli.run_sweep("damped-binary-coherent", {}, [("alpha", np.array([alpha])),
                                                            ("eta", np.array(etas))],
                            ["concurrence"])
    values = [row[-1] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), (alpha, etas, values)


def test_total_loss_concurrence_is_zero():
    # eta = 0 maps every ket to the vacuum: a qubit times one qumode ket
    rho = compress(amplitude_damp(binary_coherent(0.9).payload, 0.0))
    assert rho.dims == (2, 1)
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    assert negativity(rho) == pytest.approx(0.0, abs=1e-12)


def test_thermal_dyad_moment_examples():
    params = ThermalChannelParams(0.5, 1.0)
    val = thermal_dyad_moments(-1.0, -1.0, params, (1, 1))
    assert val == pytest.approx(0.5 * 1 + 0.5 * 1.0, abs=1e-14)  # eta|a|^2 + (1-eta) n_th
    ident = ThermalChannelParams(1.0, 3.0)
    # identity channel: <beta|adag^2 a|alpha> = conj(beta)^2 alpha <beta|alpha>
    assert thermal_dyad_moments(0.9, -0.9, ident, (2, 1)) == pytest.approx(
        (-0.9) ** 2 * 0.9 * np.exp(-2 * 0.81), abs=1e-14)


def test_thermal_dyad_moments_take_one_channel_per_point():
    # (eta, n_th) arrays over a leading point axis give each point's own channel,
    # bit for bit; eta = 1, n_th = 0 is the identity channel and eta = 0 the thermal state
    channels = [(0.6, 1.3), (1.0, 0.0), (0.0, 0.4), (0.25, 0.0)]
    alpha = np.array([[1.1 + 0.2j, -0.9], [0.3j, 0.0], [0.7, -0.7], [1e-7, 2.0]])
    beta = alpha[:, ::-1].conj()
    n = np.arange(4)
    powers = (n[:, None, None, None], n[None, :, None, None])
    eta, n_th = np.array(channels).T[..., None]
    stacked = thermal_dyad_moments(alpha, beta, (eta, n_th), powers)
    assert stacked.shape == (4, 4, 4, 2)
    for i, params in enumerate(channels):
        alone = thermal_dyad_moments(alpha[i], beta[i], ThermalChannelParams(*params),
                                     (n[:, None, None], n[None, :, None]))
        assert np.array_equal(stacked[:, :, i], alone)


def test_thermal_dyad_moments_match_kraus_numerics():
    al, be = 1.1 + 0.2j, -0.9 + 0.4j
    params = ThermalChannelParams(0.6, 1.3)
    n_cut = 30
    ks = thermal_kraus(params, n_cut)
    ops = np.stack(ks.operators)
    va, vb = coherent_ket(al, n_cut), coherent_ket(be, n_cut)
    ka = np.einsum("kob,b->ko", ops, va)
    kb = np.einsum("kob,b->ko", ops, vb)
    dyad = np.einsum("ka,kb->ab", ka, kb.conj())
    dim = dyad.shape[0]
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    all_powers = [(0, 0), (1, 1), (0, 1), (2, 1), (2, 2)]
    for powers in all_powers:
        word = np.linalg.matrix_power(a.T, powers[0]) @ np.linalg.matrix_power(a, powers[1])
        numeric = np.trace(dyad @ word)
        closed = thermal_dyad_moments(al, be, params, powers)
        assert abs(numeric - closed) < 1e-8, powers
    # one broadcast call over dyads x powers equals the scalar calls; at
    # eta = 0 the output is thermal, <beta|alpha> delta_kl k! n_th^k, which
    # needs 0**0 = 1
    pairs = np.array([(al, be), (be, al), (0.3j, -0.2), (0.0, 0.7 - 0.1j)])
    k, l = np.array(all_powers).T
    for p in (params, ThermalChannelParams(0.0, 1.3)):
        grid = thermal_dyad_moments(pairs[:, :1], pairs[:, 1:], p, (k, l))
        assert grid.shape == (len(pairs), len(all_powers))
        for (x, y), row in zip(pairs, grid):
            for powers, value in zip(all_powers, row):
                scalar = thermal_dyad_moments(x, y, p, powers)
                assert np.ndim(scalar) == 0
                assert abs(value - scalar) <= 1e-15, (p, powers)
                if p.eta == 0.0:
                    kk, ll = powers
                    ov = np.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + np.conj(y) * x)
                    assert scalar == pytest.approx(
                        ov * (kk == ll) * factorial(kk) * 1.3**kk, abs=1e-15)


def test_thermal_kraus_completeness_and_reduction():
    params = ThermalChannelParams(2 / 3, 1.0)
    ks = thermal_kraus(params, 20)
    assert ks.completeness_residual < 1e-8
    # n_th = 0 keeps only the amplitude-damping family
    eta = 0.7
    ks0 = thermal_kraus(ThermalChannelParams(eta, 0.0), 12)
    from math import comb
    for m, op in enumerate(ks0.operators):
        expect = np.zeros_like(op)
        for k in range(m, 13):
            expect[k - m, k] = np.sqrt(comb(k, m)) * np.sqrt(eta) ** (k - m) * np.sqrt(1 - eta) ** m
        assert np.abs(op - expect).max() < 1e-10


def test_hot_thermal_channel_is_complete():
    # n_th^n and (1 + n_th)^(n + 1) overflow a double long before the n = 356 the tail needs
    params = ThermalChannelParams(0.5, 15.0)
    weights = [params.thermal_weight(n) for n in range(params.env_cutoff() + 1)]
    assert np.isfinite(weights).all() and 1.0 - 1e-10 <= sum(weights) <= 1.0
    assert thermal_kraus(params, 2).completeness_residual <= 1e-10


@pytest.mark.parametrize("eta, n_th, field", [
    (0.5, float("inf"), "n_th"), (0.5, float("nan"), "n_th"), (0.5, -1.0, "n_th"),
    (float("inf"), 0.5, "eta"), (float("nan"), 0.5, "eta"), (1.5, 0.5, "eta")])
def test_channel_params_must_be_finite_and_in_range(eta, n_th, field):
    # an infinite n_th used to pass and fail later in env_cutoff with a bare NaN conversion
    with pytest.raises(ValueError, match=f"^{field} must"):
        ThermalChannelParams(eta, n_th)


def test_thermal_kraus_refuses_a_staging_array_past_its_bound(monkeypatch):
    import hyqent.channels as channels

    allocations = []
    monkeypatch.setattr(channels.np, "zeros", lambda *a, **k: allocations.append(a) or 1 / 0)
    # env_cutoff 2314: a 2316 x 2343 x 29 float array, 1.26 GB
    with pytest.raises(ValueError, match=r"2316 x 2343 x 29 staging array \(1259 MB\)"):
        thermal_kraus(ThermalChannelParams(0.5, 100.0), 27)
    assert not allocations
    monkeypatch.undo()
    assert channels.KRAUS_STAGING_LIMIT < 1.26e9
    # the benchmark's heavy case stays far below the bound
    assert thermal_kraus(ThermalChannelParams(0.5, 1.0), 27).completeness_residual <= 1e-9


@pytest.mark.parametrize("eta, n_th", [(0.3, 0.4), (0.55, 1.0), (0.8, 0.7), (0.0, 0.5),
                                         (1.0, 0.9)])
def test_thermal_kraus_matches_beamsplitter_dilation(rng, eta, n_th):
    """Independent route at n_th > 0: tr_env[U (rho x tau) U^dag] in Fock space.

    tau keeps the thermal weights up to the same environment cutoff as the
    Kraus set (not renormalized); with both modes cut at n_cut + n_env_cut
    every photon-number block the input touches is complete.
    """
    params = ThermalChannelParams(eta, n_th)
    n_cut, weight_tol = 5, 1e-4
    n_env = params.env_cutoff(weight_tol)
    dim = n_cut + n_env + 1
    rho_in = random_density(rng, 2 * (n_cut + 1))
    rho = np.zeros((2, dim, 2, dim), dtype=complex)
    rho[:, :n_cut + 1, :, :n_cut + 1] = rho_in.reshape(2, n_cut + 1, 2, n_cut + 1)
    tau = np.diag([params.thermal_weight(n) if n <= n_env else 0.0 for n in range(dim)])
    u = np.kron(np.eye(2), beamsplit(np.arccos(np.sqrt(eta)), n_cut=dim - 1, n_cut2=dim - 1))
    joint = np.kron(rho.reshape(2 * dim, 2 * dim), tau)
    full = (u @ joint @ u.conj().T).reshape(2, dim, dim, 2, dim, dim)
    oracle = np.einsum("aijbkj->aibk", full).reshape(2 * dim, 2 * dim)
    ks = thermal_kraus(params, n_cut, weight_tol=weight_tol)
    out = apply_kraus(DensityMatrix(rho_in, (2, n_cut + 1)), ks, 1)
    assert out.dims == (2, dim)
    assert np.abs(out.matrix - oracle).max() <= 1e-12


def _pauli_depolarizer():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    return make_kraus_set([p / 2 for p in paulis])


def _random_isometry_set():
    # three dense 4 x 3 operators stacked into an isometry: every shift pair
    # carries cross terms, none of which cancel
    g = np.random.default_rng(5).normal(size=(12, 3, 2)) @ [1, 1j]
    return make_kraus_set(np.linalg.qr(g)[0].reshape(3, 4, 3))


KRAUS_SETS = {
    "amplitude-damping": lambda: thermal_kraus(ThermalChannelParams(0.6, 0.0), 4),
    "thermal": lambda: thermal_kraus(ThermalChannelParams(0.45, 0.8), 4),
    "qubit-loss": lambda: qubit_loss_kraus(0.35),
    "identity": lambda: make_kraus_set((np.eye(3),)),
    "pauli-depolarizer": _pauli_depolarizer,
    "random-isometry": _random_isometry_set,
}


@pytest.mark.parametrize("name", list(KRAUS_SETS))
@pytest.mark.parametrize("layout", ["first", "second", "middle"])
def test_apply_kraus_matches_dense_operator_sum(rng, name, layout):
    ks = KRAUS_SETS[name]()
    n_in = ks.input_dim
    dims, subsystem = {"first": ((n_in, 2), 0), "second": ((2, n_in), 1),
                       "middle": ((2, n_in, 2), 1)}[layout]
    rho = DensityMatrix(random_density(rng, int(np.prod(dims))), dims)
    lead, tail = np.eye(int(np.prod(dims[:subsystem]))), np.eye(int(np.prod(dims[subsystem + 1:])))
    ref = sum(big @ rho.matrix @ big.conj().T
              for big in (np.kron(np.kron(lead, k), tail) for k in ks.operators))
    out = apply_kraus(rho, ks, subsystem)
    assert out.dims == dims[:subsystem] + (ks.output_dim,) + dims[subsystem + 1:]
    assert np.abs(out.matrix - ref).max() <= 1e-13, name


def test_make_kraus_set_round_trips_dense_operators(rng):
    ops = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)), np.zeros((3, 2)),
           np.array([[0, 0], [0, 0], [1, 0]])]
    ks = make_kraus_set(ops)
    assert (ks.input_dim, ks.output_dim) == (2, 3)
    assert len(ks.operators) == 3
    for got, want in zip(ks.operators, ops):
        assert np.array_equal(got, want)


def test_thermal_kraus_storage_and_exact_residual():
    params = ThermalChannelParams(0.5, 1.0)
    ks = thermal_kraus(params, 27)
    assert ks.shifts.nbytes + ks.diagonals.nbytes + ks.owners.nbytes < 1e6
    ops = ks.operators
    assert len(ops) == 1513 and ops[0].shape == (61, 28)
    assert all(np.count_nonzero(np.diag(op, -s)) == np.count_nonzero(op)
               for op, s in zip(ops, ks.shifts))
    assert abs(ks.completeness_residual - make_kraus_set(ops).completeness_residual) <= 1e-14
    # every photon-number block of the input is complete, so sum K^dag K is
    # the kept thermal weight on every level: the residual is the tail q^(N+1)
    q = params.n_th / (1.0 + params.n_th)
    assert ks.completeness_residual == pytest.approx(q ** (params.env_cutoff() + 1), abs=1e-15)


def test_thermal_kraus_amplitudes_match_exact_sums():
    """At eta = 1/2, psi_n[m, k] = sqrt(m! out! / (k! n! 2^(n+k))) times the
    integer sum_i C(n, i) C(k, m-i) (-1)^(n-i).  Near n = 33, n_cut = 27 the
    scaled terms of that sum reach 6e7 while every amplitude is at most 1;
    the amplitudes must not carry that cancellation."""
    n_cut = 27
    params = ThermalChannelParams(0.5, 1.0)
    ks = thermal_kraus(params, n_cut)
    rows = [(n, m) for n in range(params.env_cutoff() + 1) for m in range(n + n_cut + 1)]
    assert ks.shifts.tolist() == [n - m for n, m in rows]
    worst = 0.0
    for row, (n, m) in enumerate(rows):
        if n < 28:
            continue
        for k in range(max(0, m - n), n_cut + 1):
            total = sum(comb(n, i) * comb(k, m - i) * (-1) ** (n - i)
                        for i in range(max(0, m - k), min(n, m) + 1))
            exact = total * sqrt(Fraction(factorial(m) * factorial(n + k - m),
                                          factorial(k) * factorial(n) * 2 ** (n + k)))
            got = ks.diagonals[row, k] / sqrt(params.thermal_weight(n))
            worst = max(worst, abs(got - exact))
    assert worst <= 1e-13


def _thermal_kraus_per_step_gathers(params, n_cut, weight_tol=1e-10):
    """Reference for thermal_kraus: the same recursion with, at each N, np.clip for
    the out factors, fancy gathers of both ports from the staging array and one scatter."""
    n_env_cut = params.env_cutoff(weight_tol)
    dim_in, dim_out = n_cut + 1, n_cut + n_env_cut + 1
    t, r = np.sqrt(params.eta), np.sqrt(1.0 - params.eta)
    root = np.sqrt(np.arange(dim_out + 1))
    amp = np.zeros((n_env_cut + 2, dim_out + 1, dim_in + 1))
    amp[1, 1, 1] = 1.0
    for total in range(1, dim_out):
        n = np.arange(max(0, total - n_cut), min(total, n_env_cut) + 1)
        k = total - n
        out = root[np.clip(total - np.arange(dim_out), 0, None)]
        via_a = t * out * amp[n + 1, 1:, k] + r * root[:-1] * amp[n + 1, :-1, k]
        via_b = t * root[:-1] * amp[n, :-1, k + 1] - r * out * amp[n, 1:, k + 1]
        amp[n + 1, 1:, k + 1] = (root[k, None] * via_a + root[n, None] * via_b) / total
    psi = amp[1:, 1:, 1:]
    weight = np.array([params.thermal_weight(n) for n in range(n_env_cut + 1)])
    n, m = np.nonzero(psi.any(axis=2) & (weight > 0.0)[:, None])
    diagonals = np.sqrt(weight)[n, None] * psi[n, m]
    residual = float(np.abs((diagonals**2).sum(axis=0) - 1.0).max())
    return n - m, diagonals, np.arange(len(n)), dim_out, residual


def _assert_same_kraus_set(eta, n_th, n_cut):
    params = ThermalChannelParams(eta, n_th)
    ks = thermal_kraus(params, n_cut)
    shifts, diagonals, owners, dim_out, residual = _thermal_kraus_per_step_gathers(params, n_cut)
    assert np.array_equal(ks.shifts, shifts)
    assert np.array_equal(ks.diagonals, diagonals)
    assert np.array_equal(ks.owners, owners)
    assert ks.output_dim == dim_out and ks.completeness_residual == residual


@pytest.mark.parametrize("eta, n_th, n_cut", [
    (0.5, 1.0, 27), (0.6, 0.2, 21), (0.3, 2.0, 12), (0.0, 0.5, 8), (1.0, 0.0, 5),
    (0.9, 0.0, 60), (0.5, 1.0, 0), (0.5, 15.0, 2)])
def test_thermal_kraus_layers_equal_the_per_step_gathers(eta, n_th, n_cut):
    # the rolling layers form every product and sum of the gather loop in its order
    _assert_same_kraus_set(eta, n_th, n_cut)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.integers(0, 30))
def test_thermal_kraus_layers_equal_the_per_step_gathers_anywhere(eta, n_th, n_cut):
    _assert_same_kraus_set(eta, n_th, n_cut)


@pytest.mark.parametrize("n_cut", [-1, 2.5, np.float64(3.0), "4"])
def test_thermal_kraus_rejects_an_n_cut_that_is_not_a_count(monkeypatch, n_cut):
    # -1 used to fail in the loop with a bare IndexError, 2.5 with a TypeError
    import hyqent.channels as channels

    allocations = []
    monkeypatch.setattr(channels.np, "zeros", lambda *a, **k: allocations.append(a) or 1 / 0)
    with pytest.raises(ValueError, match="^n_cut must be an integer >= 0"):
        thermal_kraus(ThermalChannelParams(0.5, 1.0), n_cut)
    assert not allocations


def test_thermal_kraus_rejects_one_channel_per_point(monkeypatch):
    # per-point arrays, as a stacked ThermalHybridState carries, used to fail in
    # env_cutoff with numpy's "truth value of an array ... is ambiguous"
    import hyqent.channels as channels

    allocations = []
    monkeypatch.setattr(channels.np, "zeros", lambda *a, **k: allocations.append(a) or 1 / 0)
    params = ThermalChannelParams(np.array([0.5, 0.7]), np.array([1.0, 0.2]))
    with pytest.raises(ValueError, match=r"^params must hold one channel.*\(2,\) and \(2,\)"):
        thermal_kraus(params, 10)
    assert not allocations
    monkeypatch.undo()
    [(_, state)] = thermal_output(np.array([0.5, 0.8]), np.array([0.5, 0.7]), 0.3).payload
    with pytest.raises(ValueError, match="^params must hold one channel"):
        thermal_kraus(state.params, 10)
    # a 0-d array is one channel
    ks = thermal_kraus(ThermalChannelParams(np.array(0.5), np.array(1.0)), 5)
    assert np.array_equal(ks.diagonals, thermal_kraus(ThermalChannelParams(0.5, 1.0), 5).diagonals)


def test_thermal_eta_one_is_identity():
    params = ThermalChannelParams(1.0, 2.0)
    ks = thermal_kraus(params, 10)
    rho = DensityMatrix.from_ket(coherent_ket(0.8, 10, tail_tol=1e-6), (1, 11), norm_tol=1e-5)
    out = apply_kraus(rho, ks, 1)
    assert np.abs(out.matrix[:11, :11] - rho.matrix).max() < 1e-7


def test_thermal_reduces_to_amplitude_damping_at_zero_noise():
    al, eta = 0.9, 0.6
    st = binary_coherent(al).payload
    damped = amplitude_damp(st, eta)
    n_cut = 25
    via_kraus = apply_thermal(st, ThermalChannelParams(eta, 0.0)).truncated_density(n_cut)
    direct = damped.to_fock_density(n_cut)
    assert np.abs(via_kraus.matrix[: 2 * (n_cut + 1), : 2 * (n_cut + 1)]
                  - direct.matrix).max() < 1e-8


def test_apply_kraus_identity_and_qubit_loss():
    rho = DensityMatrix.from_ket(np.array([0, 0, 0, 1.0]), (2, 2))
    out = apply_kraus(rho, make_kraus_set((np.eye(2),)), 1)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14
    eta = 0.35
    out = apply_kraus(rho, qubit_loss_kraus(eta), 1)
    # |1><1| on the lossy side becomes eta |1><1| + (1-eta)|0><0|
    expect = np.zeros((4, 4))
    expect[3, 3] = eta
    expect[2, 2] = 1 - eta
    assert np.abs(out.matrix - expect).max() < 1e-12
    with pytest.raises(ValueError):
        apply_kraus(rho, qubit_loss_kraus(eta), 2)


def test_choi_states():
    choi_id = choi_state(make_kraus_set((np.eye(2),)), 2)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert np.abs(choi_id.matrix - np.outer(bell, bell)).max() < 1e-12
    eta = 0.6
    assert negativity(choi_state(qubit_loss_kraus(eta), 2)) == pytest.approx(eta / 2, abs=1e-12)
    # full depolarization is entanglement breaking: PPT Choi state
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    depol = make_kraus_set([p / 2 for p in paulis])
    assert negativity(choi_state(depol, 2)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_evolution_equation(rng):
    for eta in (0.3, 0.7):
        ks = qubit_loss_kraus(eta)
        for _ in range(30):
            chi = random_ket(rng, 4)
            lhs, rhs = concurrence_evolution_check(chi, ks)
            assert abs(lhs - rhs) < 1e-10
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    lhs, rhs = concurrence_evolution_check(bell, qubit_loss_kraus(0.5))
    assert abs(lhs - rhs) < 1e-12


def test_negativity_evolution_counterexample():
    w, eta = 0.25, 0.5
    chi = np.array([np.sqrt(w), 0, 0, np.sqrt(1 - w)])
    lhs, rhs = negativity_evolution_check(chi, qubit_loss_kraus(eta))
    assert abs(lhs - rhs) > 1e-3
    # against the closed forms of both sides
    expect_out = (1 - w) / 2 * (np.sqrt((1 - eta) ** 2 + 4 * eta * w / (1 - w)) - (1 - eta))
    assert lhs == pytest.approx(expect_out, abs=1e-12)
    assert rhs == pytest.approx(eta / 2 * np.sqrt(w * (1 - w)), abs=1e-12)


def test_damped_concurrence_closed_form_rederived():
    """The two-projector mixture has C = tau sqrt(1 - lambda^2).

    Verified here against the full Wootters computation of the compressed
    matrix; the independent beam-splitter oracle is exercised in
    test_amplitude_damp_against_beamsplitter_oracle.
    """
    for eta in (0.25, 0.5, 0.8):
        for al in (0.4, 1.0, 1.6):
            got = concurrence(compress(amplitude_damp(binary_coherent(al).payload, eta)))
            tau = np.exp(-2 * (1 - eta) * al**2)
            lam = np.exp(-2 * eta * al**2)
            assert got == pytest.approx(tau * np.sqrt(1 - lam**2), abs=1e-12)


def test_nan_thermal_photon_number_is_rejected():
    with pytest.raises(ValueError):
        ThermalChannelParams(0.5, float("nan"))


def _multi_diagonal_set():
    # random operators of three diagonals each, and one all-zero operator: owners repeat,
    # and pairs of different shifts carry cross terms
    rng = np.random.default_rng(23)
    ops = np.zeros((5, 7, 5), dtype=complex)
    for op in ops[:4]:
        for shift in rng.choice(np.arange(-4, 7), size=3, replace=False):
            k = np.arange(max(0, -shift), min(5, 7 - shift))
            op[k + shift, k] = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
    scale = np.linalg.norm(ops.reshape(-1, 5), 2)
    return make_kraus_set(ops / scale)


@pytest.mark.parametrize("make", [lambda: thermal_kraus(ThermalChannelParams(0.5, 1.0), 27),
                                  lambda: thermal_kraus(ThermalChannelParams(0.6, 0.2), 21),
                                  _multi_diagonal_set], ids=["heavy", "light", "multi-diagonal"])
def test_apply_kraus_matches_the_dense_sum_over_operators(rng, make):
    ks = make()
    ops = np.array(ks.operators)
    n_in = ks.input_dim
    rho = DensityMatrix(random_density(rng, 2 * n_in), (2, n_in))
    # blocks[a, b] is rho's (n_in, n_in) block between qubit levels a and b
    blocks = rho.matrix.reshape(2, n_in, 2, n_in).transpose(0, 2, 1, 3)
    ref = sum((k[:, None, None] @ blocks @ k.conj().transpose(0, 2, 1)[:, None, None]).sum(axis=0)
              for k in np.array_split(ops, -(-len(ops) // 64)))
    out = apply_kraus(rho, ks, 1)
    assert out.dims == (2, ks.output_dim)
    assert np.abs(out.matrix - ref.transpose(0, 2, 1, 3).reshape(out.matrix.shape)).max() <= 1e-14
    if make is _multi_diagonal_set:
        assert len(np.unique(ks.owners)) < len(ks.owners) and len(ops) == 5
