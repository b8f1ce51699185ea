import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from hyqent import (CutoffTooSmall, SymbolicKet, beamsplit, coherent_ket, coherent_tail_weight,
                    default_cutoff, displace, fock_wavefunction, hermite,
                    mode_operators, overlap_coherent, phase_shifter,
                    position_density, squeeze, wigner, wigner_marginal_x)
from hyqent.cli import FIGURES, MEASURES
from hyqent.composite import DensityMatrix

ROOT = Path(__file__).resolve().parent.parent


def hermite_explicit(n, x):
    # explicit sum H_n(x) = n! sum_i (-1)^i / (i! (n-2i)!) (2x)^(n-2i)
    from math import factorial
    return factorial(n) * sum((-1) ** i / (factorial(i) * factorial(n - 2 * i))
                              * (2 * x) ** (n - 2 * i) for i in range(n // 2 + 1))


def test_mode_operator_matrix_elements():
    with pytest.raises(ValueError):
        mode_operators(0)
    a, adag, n = mode_operators(6)
    one = np.zeros(7); one[1] = 1
    assert np.allclose(a @ one, [1, 0, 0, 0, 0, 0, 0])  # a|1> = |0>
    vac = np.zeros(7); vac[0] = 1
    assert np.allclose(a @ vac, 0.0)                      # a|0> = 0
    assert np.abs(adag - a.conj().T).max() == 0.0         # exact adjoint
    assert np.allclose(np.diag(n), np.arange(7))


def test_truncated_commutator():
    n_cut = 9
    a, adag, _ = mode_operators(n_cut)
    comm = a @ adag - adag @ a
    expect = np.eye(n_cut + 1)
    expect[-1, -1] = -n_cut
    assert np.abs(comm - expect).max() < 1e-12


def test_coherent_vacuum_and_norm():
    from math import factorial

    assert np.allclose(coherent_ket(0.0, 8), np.eye(9)[0])
    v = coherent_ket(2.0)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
    # independent Poisson-weight oracle for the truncated norm
    nbar = 4.0
    weights = [np.exp(-nbar) * nbar**n / factorial(n) for n in range(v.size)]
    assert abs(np.linalg.norm(v) ** 2 - sum(weights)) < 1e-12


def test_coherent_tail_weight_matches_incomplete_gamma():
    """Poisson survival function against the regularized lower incomplete gamma.

    The 40-digit mpmath value is the reference.  e^-x carries any rounding of
    its exponent x = -log(weight) into the weight times x, so the bound grows
    with |log weight| by a few ulps per unit; below the smallest normal double
    no relative bound holds.  scipy's gammainc itself strays from the 40-digit
    value by up to 6e-13 on this grid, which sets its own bound.
    """
    from scipy.special import gammainc
    mpmath = pytest.importorskip("mpmath")
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    assert coherent_tail_weight(0.0, 3) == 0.0
    nbars = np.concatenate([np.geomspace(1e-14, 1e4, 29), [7.0, 40.5, 41.0, 41.5, 130.0, 399.9]])
    for nbar in nbars:
        alpha = math.sqrt(nbar)
        nbar = abs(alpha) ** 2  # the value the routine squares back
        for n_cut in (0, 1, 2, 5, 10, 25, 40, 41, 80, 150, 250, 399, 400):
            got = coherent_tail_weight(alpha, n_cut)
            with mpmath.workdps(40):
                exact = float(mpmath.gammainc(n_cut + 1, 0, nbar, regularized=True))
            if exact < tiny:
                assert got < 2 * tiny
                continue
            assert abs(got - exact) <= (1e-13 + 2 * eps * abs(math.log(exact))) * exact
            assert abs(got - gammainc(n_cut + 1, nbar)) <= 1e-12 * exact


# Runs the exact Fock routes, every reproduce figure and every CLI family x
# measure pair read from stdin; prints each one's exit code, stdout and data
# file hashes, then the scipy modules loaded.  argv: "blocked" or "present", out dir.
NO_SCIPY_RUN = """
import contextlib, hashlib, io, json, pathlib, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import hyqent
from hyqent.cli import FIGURES, main
hyqent.SymbolicKet.squeezed_coherent(1.0, 0.5, 3.1).to_fock(40)
hyqent.SymbolicKet.photon_added(3, 0.7).to_fock(40)
root = pathlib.Path(sys.argv[2])

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return [main(args), out.getvalue()]

results = {}
for fig in sorted(FIGURES):
    out_dir = root / fig
    results[fig] = run(["reproduce", fig, "--out-dir", str(out_dir)]) + [
        {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}]
for family, measure, doc in json.load(sys.stdin):
    spec = root / f"{family}.json"
    spec.write_text(json.dumps(doc))
    results[f"{family} {measure}"] = run(["measure", str(spec), "--measure", measure])
print(json.dumps(results))
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_import_loads_no_scipy(tmp_path):
    """The runtime needs numpy alone: nothing loads scipy, and blocking it changes no result."""
    from test_cli import FAMILY_POINTS

    pairs = [(family, measure, {"family": family, "params": params})
             for family, params in sorted(FAMILY_POINTS.items()) for measure in MEASURES]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    procs = {}
    for mode in ("present", "blocked"):
        procs[mode] = subprocess.Popen(
            [sys.executable, "-c", NO_SCIPY_RUN, mode, str(tmp_path / mode)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = {}
    for mode, proc in procs.items():
        out, err = proc.communicate(json.dumps(pairs), timeout=300)
        assert proc.returncode == 0, err[-2000:]
        results, loaded = out.splitlines()
        assert loaded == "[]"
        outputs[mode] = json.loads(results)
    assert len(outputs["present"]) == len(FIGURES) + len(pairs)
    assert all(outputs["present"][fig][0] == 0 for fig in FIGURES)
    assert outputs["blocked"] == outputs["present"]


def test_coherent_ket_is_the_glauber_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(40):
        alpha = complex(*rng.normal(size=2)) * rng.choice([1e-3, 0.5, 2.0, 5.0])
        n_cut = max(int(rng.integers(1, 100)), default_cutoff(alpha))
        loop = np.zeros(n_cut + 1, dtype=complex)
        loop[0] = 1.0
        for n in range(1, n_cut + 1):
            loop[n] = loop[n - 1] * alpha / np.sqrt(n)
        assert np.array_equal(coherent_ket(alpha, n_cut), loop * np.exp(-abs(alpha) ** 2 / 2.0))


@pytest.mark.parametrize("alpha", [38.0, 40.0 * np.exp(0.7j), 100j],
                         ids=["38", "40e^0.7i", "100i"])
def test_coherent_ket_stays_finite_at_large_amplitudes(alpha):
    # alpha^n / sqrt(n!) passes the double range near |alpha| = 37.6, and e^{-|alpha|^2/2}
    # falls below it
    mpmath = pytest.importorskip("mpmath")
    v = coherent_ket(alpha)
    levels = range(0, v.size, 5)
    with mpmath.workdps(30):  # the amplitudes exp(-|a|^2/2 + n log a - log(n!)/2)
        a = mpmath.mpc(alpha)
        exact = [complex(mpmath.exp(-abs(a) ** 2 / 2 + n * mpmath.log(a)
                                    - mpmath.loggamma(n + 1) / 2)) for n in levels]
    assert np.isfinite(v).all()
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.abs(v[levels] - exact).max() < 1e-12
    if alpha == 38.0:
        raised = SymbolicKet.photon_added(2, alpha).to_fock(1800)
        assert np.isfinite(raised).all() and abs(np.linalg.norm(raised) - 1.0) < 1e-12


def test_squeeze_guard_raises_exactly_when_the_squeezed_vacuum_tail_exceeds_tail_tol():
    # S(xi)|0> holds the even levels 2j with weights C(2j, j) (tanh r / 2)^(2j) / cosh r
    tol = 1e-8
    for r in (0.3, 0.8):
        weights = [math.comb(2 * j, j) * (math.tanh(r) / 2) ** (2 * j) / math.cosh(r)
                   for j in range(200)]
        for n_cut in range(4, 60):
            tail = math.fsum(weights[n_cut // 2 + 1:])
            if tail > tol:
                with pytest.raises(CutoffTooSmall):
                    squeeze(0.0, r, n_cut, tail_tol=tol)
            else:
                squeeze(0.0, r, n_cut, tail_tol=tol)


def test_coherent_cutoff_too_small():
    with pytest.raises(CutoffTooSmall) as err:
        coherent_ket(3.0, 5)
    assert err.value.suggested == default_cutoff(3.0)


def test_overlap_against_itself_and_opposite():
    assert overlap_coherent(1.3 + 0.2j, 1.3 + 0.2j) == pytest.approx(1.0)
    al = 1.0
    assert overlap_coherent(al, -al) == pytest.approx(np.exp(-2 * al**2), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
def test_overlap_matches_truncated_inner_product(alpha, beta):
    va = coherent_ket(alpha, 40)
    vb = coherent_ket(beta, 40)
    assert abs(np.vdot(vb, va) - overlap_coherent(alpha, beta)) < 1e-10


def test_displace_identity_and_coherent():
    assert np.abs(displace(0.0, 10) - np.eye(11)).max() < 1e-12
    al = 1.2 - 0.4j
    n_cut = default_cutoff(al)
    vac = np.zeros(n_cut + 1); vac[0] = 1
    assert np.linalg.norm(displace(al, n_cut) @ vac - coherent_ket(al, n_cut)) < 1e-10


def test_phase_shifter_diagonal():
    u = phase_shifter(0.7, 5)
    assert np.allclose(np.diag(u), np.exp(1j * 0.7 * np.arange(6)))


def test_beamsplit_splits_coherent_state():
    eta = 0.64
    theta = np.arccos(np.sqrt(eta))
    al = 1.1
    n_cut = 22
    u = beamsplit(theta, n_cut=n_cut)
    psi = np.kron(coherent_ket(al, n_cut), coherent_ket(0.0, n_cut))
    target = np.kron(coherent_ket(np.sqrt(eta) * al, n_cut),
                     coherent_ket(np.sqrt(1 - eta) * al, n_cut))
    assert np.linalg.norm(u @ psi - target) < 1e-8


def test_unitarity_on_converged_subspace():
    for u in (displace(1.0, 30), squeeze(0.3, 0.6, 40), phase_shifter(1.1, 30)):
        gap = u.conj().T @ u - np.eye(u.shape[0])
        sub = gap[:12, :12]  # kets supported well below the cutoff
        assert np.abs(sub).max() < 1e-10


@pytest.mark.parametrize("name, args", [
    ("displace", (1.2 - 0.4j, 30)), ("displace", (5.0, 80)), ("displace", (0.3j, 6)),
    ("squeeze", (0.3, 0.6, 40)), ("squeeze", (1.0, 0.5, 120)),
    ("beamsplit", (0.7, 0.0, 14, 14)), ("beamsplit", (0.4, 0.9, 9, 13)),
    ("beamsplit", (1.1, -2.0, 16, 5))])
def test_fock_unitaries_match_expm_of_the_truncated_generator(name, args):
    from scipy.linalg import expm

    if name == "displace":
        alpha, n_cut = args
        a, adag, _ = mode_operators(n_cut)
        u, g = displace(alpha, n_cut), alpha * adag - np.conj(alpha) * a
    elif name == "squeeze":
        theta, r, n_cut = args
        a, adag, _ = mode_operators(n_cut)
        u = squeeze(theta, r, n_cut)
        g = 0.5 * r * (np.exp(-1j * theta) * (a @ a) - np.exp(1j * theta) * (adag @ adag))
    else:
        theta, phi, n_cut, n_cut2 = args
        (a1, a1d, _), (a2, a2d, _) = mode_operators(n_cut), mode_operators(n_cut2)
        u = beamsplit(theta, phi, n_cut, n_cut2)
        g = theta * (np.exp(1j * phi) * np.kron(a1, a2d) - np.exp(-1j * phi) * np.kron(a1d, a2))
    assert np.abs(u - expm(g)).max() <= 1e-12
    # unitary on the whole truncated space, not only below the cutoff
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-13


def test_squeeze_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        squeeze(0.0, 1.5, 10)


def test_hermite_basics_and_explicit_sum():
    assert hermite(0, 0.37) == 1.0
    assert hermite(1, 0.37) == pytest.approx(0.74)
    assert hermite(3, 0.0) == 0.0
    assert hermite(4, 1.0) == pytest.approx(-20.0)  # from the explicit sum
    for n in range(21):
        for x in np.linspace(-5, 5, 11):
            ref = hermite_explicit(n, x)
            scale = max(1.0, abs(ref))
            assert abs(hermite(n, x) - ref) / scale < 1e-6
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


def test_fock_wavefunction_values_and_norm():
    assert fock_wavefunction(1, 0.0) == 0.0
    assert fock_wavefunction(0, 0.0) == pytest.approx(np.pi**-0.25)
    xs = np.linspace(-12, 12, 4001)
    for n in range(11):
        w = fock_wavefunction(n, xs)
        assert abs(np.trapezoid(w * w, xs) - 1.0) < 1e-8


def wigner_quadrature(matrix, x, p):
    """Independent oracle: direct y-quadrature of the defining integral."""
    ys = np.linspace(-10, 10, 4001)
    dim = matrix.shape[0]
    wm = np.stack([fock_wavefunction(m, x - ys) for m in range(dim)])
    wn = np.stack([fock_wavefunction(n, x + ys) for n in range(dim)])
    integrand = np.einsum("mn,my,ny->y", matrix, wm, wn) * np.exp(2j * p * ys)
    return float(np.trapezoid(integrand, ys).real / np.pi)


def wigner_laguerre_sum(matrix, xs, ps):
    """Reference double sum: one eval_genlaguerre call per Fock pair m <= n.

    |m><n| + h.c. contributes 2 Re of (-1)^m/pi sqrt(m!/n!) e^{-r^2/2}
    L_m^{n-m}(r^2) (sqrt(2) z)^{n-m} with z = x + ip and r^2 = 2|z|^2.
    """
    from scipy.special import eval_genlaguerre, gammaln
    x, p = np.meshgrid(xs, ps, indexing="ij")
    r2 = 2.0 * (x * x + p * p)
    w = np.zeros(x.shape)
    dim = matrix.shape[0]
    for m in range(dim):
        for n in range(m, dim):
            core = ((-1) ** m / np.pi * np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
                    * np.exp(-r2 / 2.0) * eval_genlaguerre(m, n - m, r2))
            term = matrix[m, n] * core * (np.sqrt(2.0) * (x + 1j * p)) ** (n - m)
            w += (1.0 if n == m else 2.0) * term.real
    return w


def _corner_only(dim):
    rho = np.diag(np.linspace(2.0, 1.0, dim)).astype(complex)
    rho[0, -1] = 0.3 - 0.4j
    rho[-1, 0] = np.conj(rho[0, -1])
    return rho / np.trace(rho).real


@pytest.mark.parametrize("case", ["random-40", "diagonal", "corner-only", "origin",
                                  "distinct-radii"])
def test_wigner_recursion_matches_laguerre_sum(rng, case):
    grid_x, grid_p = np.linspace(-7.0, 7.0, 29), np.linspace(-6.0, 6.5, 23)
    if case == "random-40":
        rho = random_density(rng, 41)
    elif case == "diagonal":
        rho = np.diag(rng.random(33) + 0j)
        rho /= np.trace(rho).real
    elif case == "corner-only":
        rho = _corner_only(25)
    elif case == "origin":
        rho = random_density(rng, 30)
        grid_x = grid_p = np.zeros(1)
    else:
        rho = random_density(rng, 16)
        grid_x, grid_p = np.array([0.31, -1.17, 2.03, 0.77, -2.61]), np.array([0.43, -1.9, 1.21])
        x, p = np.meshgrid(grid_x, grid_p, indexing="ij")
        assert np.unique(x * x + p * p).size == x.size
    field = wigner(rho, grid_x, grid_p)
    assert field.values.shape == (grid_x.size, grid_p.size)
    assert np.abs(field.values - wigner_laguerre_sum(rho, grid_x, grid_p)).max() < 1e-13
    if case == "origin":  # W(0) is the parity expectation over pi
        parity = np.sum((-1.0) ** np.arange(30) * np.diag(rho).real) / np.pi
        assert field.values[0, 0] == pytest.approx(parity, abs=1e-15)


def cat_wigner_closed_form(amplitudes, xs, ps):
    """Cat Wigner function as a sum of coherent-dyad Gaussians (Cahill & Glauber).

    |a><b| contributes <b|a> exp(-2 (w - a)(conj(w) - conj(b))) / pi with
    w = (x + ip)/sqrt(2); no Fock truncation enters.
    """
    x, p = np.meshgrid(xs, ps, indexing="ij")
    w = (x + 1j * p) / np.sqrt(2.0)
    total = np.zeros(x.shape, dtype=complex)
    norm = 0.0
    for a in amplitudes:
        for b in amplitudes:
            ov = overlap_coherent(a, b)
            norm += ov.real
            total += ov * np.exp(-2.0 * (w - a) * (np.conj(w) - np.conj(b))) / np.pi
    return total.real / norm


def test_wigner_large_cat_matches_coherent_dyads():
    # the amplitude of `reproduce wigner-cat --full` on a coarse grid
    alpha, n_cut = 6.0, 95
    amps = (alpha * np.exp(1j * np.pi / 6), alpha * np.exp(-1j * np.pi / 6))
    v = coherent_ket(amps[0], n_cut) + coherent_ket(amps[1], n_cut)
    v /= np.linalg.norm(v)
    extent = alpha * np.sqrt(2.0) + 5.0
    grid = np.linspace(-extent, extent, 41)
    field = wigner(np.outer(v, v.conj()), grid, grid)
    assert np.abs(field.values - cat_wigner_closed_form(amps, grid, grid)).max() < 1e-8


def test_wigner_vacuum_value():
    rho = np.zeros((5, 5), dtype=complex)
    rho[0, 0] = 1.0
    grid = np.linspace(-5, 5, 101)
    field = wigner(rho, grid, grid)
    i0 = 50
    assert field.values[i0, i0] == pytest.approx(1 / np.pi, abs=1e-8)
    assert abs(field.mass - 1.0) < 1e-6
    assert field.converged


def test_wigner_matches_quadrature_oracle(rng):
    dim = 6
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    for x, p in [(0.0, 0.0), (0.4, -0.9), (1.3, 0.6)]:
        field = wigner(rho, np.array([x]), np.array([p]))
        assert field.values[0, 0] == pytest.approx(wigner_quadrature(rho, x, p), abs=1e-9)


def test_wigner_normalization_and_marginal(rng):
    dim = 21  # states up to n_cut = 20, supported out to ~sqrt(2n+1) = 6.4
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    grid = np.linspace(-9.5, 9.5, 191)
    field = wigner(m, grid, grid)
    assert abs(field.mass - 1.0) < 1e-6
    marg = wigner_marginal_x(field)
    assert np.abs(marg - position_density(m, grid)).max() < 1e-6


def test_wigner_grid_too_small_flag():
    rho = DensityMatrix.from_ket(coherent_ket(2.0, 40), (41,))
    small = np.linspace(-1, 1, 21)
    assert not wigner(rho, small, small).converged


def test_wigner_cat_negative():
    al, phi = 2.0, np.pi / 6
    n_cut = default_cutoff(al)
    v = coherent_ket(al * np.exp(1j * phi), n_cut) + coherent_ket(al * np.exp(-1j * phi), n_cut)
    v /= np.linalg.norm(v)
    grid = np.linspace(-8, 8, 161)
    field = wigner(np.outer(v, v.conj()), grid, grid)
    assert field.values.min() < 0.0
    assert abs(field.mass - 1.0) < 1e-6
    amps = (al * np.exp(1j * phi), al * np.exp(-1j * phi))
    assert np.abs(field.values - cat_wigner_closed_form(amps, grid, grid)).max() < 1e-8


def _shrinking_recursion_wigner(matrix, xs, ps):
    """W by a one-off three-term recursion that drops each diagonal once it is spent."""
    dim = matrix.shape[0]
    x2, p2 = np.meshgrid(xs, ps, indexing="ij")
    radii, where = np.unique(2.0 * (x2 * x2 + p2 * p2).ravel(), return_inverse=True)
    rows, cols = np.nonzero(matrix)
    n_diag = int(np.abs(rows - cols).max(initial=0)) + 1
    d = np.arange(n_diag)[:, None]
    sums = np.zeros((n_diag, radii.size), dtype=complex)
    lag_prev, lag = np.zeros(sums.shape), np.ones(sums.shape)
    for m in range(dim):
        k = min(n_diag, dim - m)
        sums[:k] += (-1) ** m * matrix[m, m:m + k, None] * lag[:k]
        k = min(k, dim - m - 1)
        dk = d[:k]
        lag_prev, lag = lag[:k], ((2 * m + 1 + dk - radii) * lag[:k] - np.sqrt(m * (m + dk))
                                  * lag_prev[:k]) / np.sqrt((m + 1) * (m + 1 + dk))
    sums *= np.exp(-radii / 2.0)
    values = sums[0, where].real
    phase = np.ones(x2.size, dtype=complex)
    step = np.sqrt(2.0) * (x2 + 1j * p2).ravel()
    for n in range(1, n_diag):
        phase *= step / np.sqrt(n)
        values += 2.0 * (sums[n, where] * phase).real
    return values.reshape(x2.shape) / np.pi


def test_wigner_is_bitwise_the_shrinking_recursion(rng):
    grid = np.linspace(-5.0, 5.0, 41)
    v = coherent_ket(2.0, 40) + coherent_ket(-2.0, 40)
    for rho in (np.outer(v, v.conj()) / np.vdot(v, v).real, random_density(rng, 30)):
        assert np.array_equal(wigner(rho, grid, grid).values,
                              _shrinking_recursion_wigner(rho, grid, grid))
