"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 04 pins the damped-state concurrence to the closed form
tau sqrt(1 - lambda^2) that the two-projector mixture obeys, and checks that
form against a Fock beam-splitter dilation that does not use amplitude_damp
or compress; the README records the earlier reference expression it replaced.
"""

import functools
import json
from itertools import combinations
from math import comb

import numpy as np

import hyqent as hq
from hyqent.catalog import (binary_coherent, ghz, mixed23, mixed24,
                            qutrit_qumode, tripartite_qmm, tripartite_qqm,
                            two_mode_cat, w_state)
from hyqent.cli import main as cli_main


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")
        return wrapper
    return deco


@criterion(1, "cat concurrence surface")
def test_criterion_01_cat_concurrence_surface():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        for k in range(8):
            phi = k * np.pi / 4.0
            v, dims = hq.compress_vector(two_mode_cat(alpha, phi).payload)
            got = hq.concurrence(hq.DensityMatrix.from_ket(v, dims))
            e = np.exp(-4.0 * alpha**2)
            want = (1.0 - e) / (1.0 + e * np.cos(phi))
            assert abs(got - want) <= 1e-10, (alpha, phi)


@criterion(2, "SV determinants, embedded and adapted operators")
def test_criterion_02_sv_determinants_both_operator_sets():
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        n_cut = hq.default_cutoff(alpha)
        rho = binary_coherent(alpha).payload.to_fock_density(n_cut, tail_tol=1e-9)
        s1_want = -(alpha**2) / 2.0 * np.exp(-4.0 * alpha**2)
        s2_want = alpha**2 / 2.0 * (1.0 - np.exp(-4.0 * alpha**2))
        for mode in ("adapted", "embedded"):
            prov = hq.MatrixMomentProvider(rho, mode_subsystem=1, qudit_mode=mode)
            mm = hq.sv_moment_matrix(prov, 2, qudit_dim=2)
            assert abs(hq.s1_minor(mm) - s1_want) <= 1e-8, (alpha, mode)
            assert abs(hq.s2_minor(mm) - s2_want) <= 1e-8, (alpha, mode)


@criterion(3, "generalized cat witness covers every phase")
def test_criterion_03_generalized_cat_witness():
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    assert np.pi / 2 in phis and 3 * np.pi / 2 in phis  # step-function crossover hit
    for alpha in (0.3, 1.0):
        for phi in phis:
            _, _, selected = hq.cat_witness_determinants(alpha, phi)
            assert selected < 0.0, (alpha, phi)
            assert abs(selected) > 1e-12, (alpha, phi)


def _wootters_by_hand(rho):
    """Wootters concurrence of a 4x4 two-qubit density matrix.

    The lambdas are the singular values of sqrt(rho) (Y x Y) conj(sqrt(rho)),
    which keeps the vanishing ones near 1e-16 instead of the 1e-10 that the
    square roots of rho rho~'s eigenvalues leave.
    """
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _dilated_damped_concurrence(eta, alpha, n_cut=20):
    """Concurrence of the lossy binary coherent state by Fock dilation.

    Couples the mode of (|0>|alpha> + |1>|-alpha>)/sqrt(2) to a vacuum
    environment with a beam splitter of transmissivity eta, traces the
    environment out, and projects the mode onto span{|+-sqrt(eta) alpha>}.
    """
    dim = n_cut + 1
    vac = hq.coherent_ket(0.0, n_cut)
    psi = (np.kron([1, 0], np.kron(hq.coherent_ket(alpha, n_cut), vac))
           + np.kron([0, 1], np.kron(hq.coherent_ket(-alpha, n_cut), vac))) / np.sqrt(2)
    u = hq.beamsplit(np.arccos(np.sqrt(eta)), n_cut=n_cut)
    psi = (np.kron(np.eye(2), u) @ psi).reshape(2, dim, dim)
    rho = np.einsum("aie,bje->aibj", psi, psi.conj()).reshape(2 * dim, 2 * dim)
    a = np.sqrt(eta) * alpha
    q, _ = np.linalg.qr(np.column_stack([hq.coherent_ket(a, n_cut),
                                         hq.coherent_ket(-a, n_cut)]))
    p = np.kron(np.eye(2), q)
    return _wootters_by_hand(p.conj().T @ rho @ p)


@criterion(4, "damped concurrence matches tau sqrt(1 - lambda^2)")
def test_criterion_04_damped_concurrence_pinned_form():
    # eta = 1 limit: the undisturbed state's concurrence
    for alpha in np.linspace(0.2, 2.0, 10):
        got = hq.concurrence(hq.compress(
            hq.amplitude_damp(binary_coherent(alpha).payload, 1.0)))
        assert abs(got - np.sqrt(1.0 - np.exp(-4.0 * alpha**2))) <= 1e-9
    # pinned form tau sqrt(1 - lambda^2): environment overlap
    # tau = exp(-2 (1-eta) alpha^2) times the pure-state concurrence of the
    # damped kets, whose overlap is lambda = exp(-2 eta alpha^2)
    def pinned_form(eta, alpha):
        return (np.exp(-2.0 * (1.0 - eta) * alpha**2)
                * np.sqrt(1.0 - np.exp(-4.0 * eta * alpha**2)))

    for eta in np.linspace(0.1, 1.0, 10):
        for alpha in np.linspace(0.2, 2.0, 10):
            got = hq.concurrence(hq.compress(
                hq.amplitude_damp(binary_coherent(alpha).payload, eta)))
            pinned = pinned_form(eta, alpha)
            assert abs(got - pinned) <= 1e-9, (
                f"eta={eta:.2f} alpha={alpha:.2f}: compressed Wootters value "
                f"{got:.9f} vs pinned closed form {pinned:.9f}")
    # the pinned form itself, against a beam-splitter dilation in Fock space
    for eta, alpha in ((0.3, 0.7), (0.55, 1.3), (0.8, 0.2)):
        oracle = _dilated_damped_concurrence(eta, alpha)
        pinned = pinned_form(eta, alpha)
        assert abs(oracle - pinned) <= 1e-9, (
            f"eta={eta:.2f} alpha={alpha:.2f}: dilation oracle {oracle:.12f} "
            f"vs pinned closed form {pinned:.12f}")


@criterion(5, "thermal channel cross-validation")
def test_criterion_05_thermal_cross_validation():
    n_cut = hq.default_cutoff(1.5)
    for eta in (0.3, 0.5, 2.0 / 3.0):
        for n_th in (0.0, 0.5, 1.0, 2.0):
            params = hq.ThermalChannelParams(eta, n_th)
            ks = hq.thermal_kraus(params, n_cut)
            for alpha in (0.5, 1.0, 1.5):
                state = binary_coherent(alpha).payload
                rho = hq.apply_kraus(state.to_fock_density(n_cut, tail_tol=1e-9), ks, 1)
                prov = hq.MatrixMomentProvider(rho, mode_subsystem=1)
                numeric = hq.s1_minor(hq.sv_moment_matrix(prov, 2, qudit_dim=2))
                closed = hq.thermal_s1(alpha, eta, n_th)
                assert abs(numeric - closed) <= 1e-6, (alpha, eta, n_th)
    # threshold curve: the s1 zero crossing in n_th sits on the closed form
    from scipy.optimize import brentq
    for alpha in (0.3, 0.6, 1.0):
        for eta in (0.4, 0.7):
            root = brentq(lambda n: hq.thermal_s1(alpha, eta, n), 0.0, 10.0, xtol=1e-12)
            assert abs(root - hq.thermal_threshold(alpha, eta)) <= 1e-9
    # optimal amplitude: value and eta-independence of the threshold peak
    a_opt = hq.optimal_alpha()
    assert abs(a_opt - 0.44) <= 0.005
    peaks = []
    for eta in (0.3, 0.6, 0.9):
        def dthr(alpha, eta=eta):
            a2 = alpha**2
            e4 = np.exp(4.0 * a2)
            return (4.0 * eta / (1.0 - eta)) * (
                2.0 * alpha * (2.0 * e4 - 1.0) - 16.0 * alpha**3 * e4)
        peaks.append(brentq(dthr, 0.2, 0.8, xtol=1e-14))
    assert np.ptp(peaks) < 1e-9
    assert abs(peaks[0] - a_opt) < 1e-9


@criterion(6, "qutrit-qumode Schmidt coefficients")
def test_criterion_06_qutrit_schmidt():
    alpha = np.sqrt(2.0 * np.log(2.0))  # overlap x = 1/2
    dec = hq.schmidt(*hq.compress_vector(qutrit_qumode(alpha).payload))
    assert np.abs(dec.coefficients - np.array([0.76, 0.56, 0.33])).max() <= 0.005


@criterion(7, "CKW tangles and tripartite states")
def test_criterion_07_ckw_tripartite():
    assert abs(hq.ckw(ghz().payload.vector).tau_res - 1.0) <= 1e-12
    assert abs(hq.ckw(w_state().payload.vector).tau_res) <= 1e-12
    for q in np.linspace(0.0, 1.0, 11):
        rep = hq.ckw(tripartite_qqm(q).payload.vector)
        assert abs(rep.c2_ab - q**2) <= 1e-10
        assert abs(rep.tau_res - (1.0 - q**2)) <= 1e-10
        assert abs(rep.total - 1.0) <= 1e-10
    for qf in (0.0, 0.3, 0.8, 1.0):
        for qp in (0.0, 0.45, 0.9):
            rep = hq.ckw(tripartite_qmm(qf, qp).payload.vector)
            assert abs(rep.c2_ab - qp**2 * (1 - qf**2)) <= 1e-10
            assert abs(rep.c2_ac - qf**2 * (1 - qp**2)) <= 1e-10
            assert abs(rep.tau_res - (1 - qf**2) * (1 - qp**2)) <= 1e-10
            assert abs(rep.total - (1 - qf**2 * qp**2)) <= 1e-10


@criterion(8, "entanglement evolution equation and its negativity failure")
def test_criterion_08_evolution_equations():
    rng = np.random.default_rng(8)
    for eta in (0.3, 0.7):
        ks = hq.qubit_loss_kraus(eta)
        for _ in range(100):
            chi = rng.normal(size=4) + 1j * rng.normal(size=4)
            chi /= np.linalg.norm(chi)
            lhs, rhs = hq.concurrence_evolution_check(chi, ks)
            assert abs(lhs - rhs) <= 1e-10
    w = 0.25
    chi = np.array([np.sqrt(w), 0.0, 0.0, np.sqrt(1 - w)])
    lhs, rhs = hq.negativity_evolution_check(chi, hq.qubit_loss_kraus(0.5))
    assert abs(lhs - rhs) > 1e-3


def _all_minors_up_to_order(mm, max_order):
    m = mm.matrix
    n = m.shape[0]
    out = []
    for k in range(1, max_order + 1):
        subs = np.array(list(combinations(range(n), k)))
        batch = m[subs[:, :, None], subs[:, None, :]]
        out.append(np.linalg.det(batch).real)
    return np.concatenate(out)


@criterion(9, "witness soundness on separable states")
def test_criterion_09_witness_soundness():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n_terms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(n_terms))
        terms = []
        for w in weights:
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            q /= np.linalg.norm(q)
            ket = hq.SymbolicKet.coherent(0.8 * (rng.normal() + 1j * rng.normal()))
            terms.append((w, [(q[0], 0, ket), (q[1], 1, ket)]))
        mm = hq.sv_moment_matrix(
            hq.SymbolicMomentProvider(hq.HybridState(2, terms)), 2, qudit_dim=2)
        assert _all_minors_up_to_order(mm, 4).min() >= -1e-8
    # negativity vanishes exactly when the partial transpose stays positive
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        for _ in range(100):
            rank = int(rng.integers(1, d + 1))
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            m = g @ g.conj().T
            rho = hq.DensityMatrix(m / np.trace(m).real, dims)
            neg = hq.negativity(rho)
            min_ev = np.linalg.eigvalsh(hq.partial_transpose(rho, 1)).min()
            assert (neg <= 1e-10) == (min_ev >= -1e-10)


@criterion(10, "inverse Gram-Schmidt and measure invariance")
def test_criterion_10_gram_schmidt():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        kets = [hq.SymbolicKet.coherent(rng.normal() + 1j * rng.normal())
                for _ in range(n)]
        coeffs = hq.ket_expansion(kets)
        a = coeffs.matrix
        assert np.abs(np.triu(a, 1)).max() == 0.0
        diag = np.diag(a)
        assert diag.real.min() > 0 and np.abs(diag.imag).max() == 0.0
        gram = np.array([[hq.overlap(x, y) for y in kets] for x in kets])
        assert np.abs(coeffs.reconstructed_gram() - gram).max() <= 1e-12
    for named in (binary_coherent(1.0), mixed23(0.35, 1.0), mixed24(0.3, 0.8)):
        state = named.payload
        compressed = hq.log_negativity(hq.compress(state), 1)
        truncated = hq.log_negativity(state.to_fock_density(30), 1)
        assert abs(compressed - truncated) <= 1e-6, named.id


@criterion(11, "thermal Kraus completeness and zero-noise reduction")
def test_criterion_11_thermal_kraus():
    params = hq.ThermalChannelParams(2.0 / 3.0, 1.0)
    ks = hq.thermal_kraus(params, 20)  # documented cutoffs: thermal tail < 1e-10
    assert ks.completeness_residual < 1e-8
    eta = 2.0 / 3.0
    ks0 = hq.thermal_kraus(hq.ThermalChannelParams(eta, 0.0), 14)
    for m, op in enumerate(ks0.operators):
        expect = np.zeros_like(op)
        for k in range(m, 15):
            expect[k - m, k] = (np.sqrt(comb(k, m)) * np.sqrt(eta) ** (k - m)
                                * np.sqrt(1 - eta) ** m)
        assert np.abs(op - expect).max() <= 1e-10


@criterion(12, "Wigner normalization and cat negativity")
def test_criterion_12_wigner_cat():
    alpha, phi = 2.0, np.pi / 6.0
    n_cut = hq.default_cutoff(alpha)
    v = (hq.coherent_ket(alpha * np.exp(1j * phi), n_cut)
         + hq.coherent_ket(alpha * np.exp(-1j * phi), n_cut))
    v /= np.linalg.norm(v)
    grid = np.linspace(-8.0, 8.0, 161)
    field = hq.wigner(np.outer(v, v.conj()), grid, grid)
    assert abs(field.mass - 1.0) <= 1e-6
    assert field.values.min() < 0.0


@criterion(13, "Gaussian module values and Fock cross-check")
def test_criterion_13_gaussian():
    from test_gaussian import tmss_fock_log_negativity

    assert np.abs(hq.symplectic_eigenvalues(hq.vacuum_cov(3)) - 1.0).max() <= 1e-12
    for r in (0.3, 0.7, 1.0):
        assert abs(hq.gaussian_log_negativity(hq.tmss_cov(r), 1)
                   - 2.0 * r / np.log(2.0)) <= 1e-8
    for r in (0.5, 1.0):
        assert abs(tmss_fock_log_negativity(r, 80)
                   - hq.gaussian_log_negativity(hq.tmss_cov(r), 1)) <= 1e-4


@criterion(14, "qualitative shapes where no closed form is pinned")
def test_criterion_14_qualitative_shapes():
    # 2x3 mixed-state log-negativity: minimal at p = 1/2, increasing in alpha
    ps = np.linspace(0.1, 0.9, 9)
    alphas = np.linspace(0.4, 2.0, 9)
    table = np.array([[hq.log_negativity(hq.compress(mixed23(p, a).payload), 1)
                       for a in alphas] for p in ps])
    mid = 4  # p = 0.5 row
    for j in range(len(alphas)):
        assert table[:, j].argmin() == mid, f"alpha={alphas[j]}"
    for i in range(len(ps)):
        assert np.all(np.diff(table[i]) > 0), f"p={ps[i]}"
    # geometric-mixture sufficient criterion: witnessed region is closed
    # under decreasing x and alpha on the grid
    xs = np.linspace(0.04, 0.96, 20)
    als = np.linspace(0.05, 1.5, 20)
    witnessed = np.array([[hq.geometric_mixture_s1(x, a)[1] < 0.0 for a in als]
                          for x in xs])
    assert witnessed.any() and not witnessed.all()
    for i in range(len(xs)):
        for j in range(len(als)):
            if witnessed[i, j]:
                assert witnessed[: i + 1, : j + 1].all(), (xs[i], als[j])


@criterion(15, "sweep determinism across worker counts")
def test_criterion_15_sweep_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "two-mode-cat", "params": {"phi": 0.0}}))
    args = ["sweep", str(spec), "--axis", "alpha=0.3:1.8:6", "--axis",
            "phi=0:6.28:6", "--output", "concurrence,cat_s1_closed,cat_s2_closed"]
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert cli_main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert cli_main(args + ["--out", str(out8), "--workers", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
