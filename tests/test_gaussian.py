import numpy as np
import pytest

from hyqent import (GaussianState, beamsplitter_symplectic, gaussian_entropy,
                    gaussian_log_negativity, phase_symplectic, ppt_condition,
                    squeezer_symplectic, symplectic_eigenvalues, symplectic_form,
                    thermal_cov, tmss_cov, vacuum_cov)
from hyqent.gaussian import embed_symplectic


def test_symplectic_form_and_generators():
    j = symplectic_form(2)
    for s in (embed_symplectic(squeezer_symplectic(0.7, 0.4), [0], 2),
              embed_symplectic(phase_symplectic(1.1), [1], 2),
              beamsplitter_symplectic(0.6)):
        assert np.abs(s @ j @ s.T - j).max() < 1e-12


def test_vacuum_and_thermal_spectra():
    assert np.abs(symplectic_eigenvalues(vacuum_cov(3)) - 1.0).max() < 1e-12
    nbar = 1.7
    mu = symplectic_eigenvalues(thermal_cov(nbar))
    assert mu[0] == pytest.approx(2 * nbar + 1, abs=1e-12)
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_heisenberg_validation():
    GaussianState(vacuum_cov(2))
    with pytest.raises(ValueError):
        GaussianState(0.5 * vacuum_cov(1))  # below vacuum noise


def test_nan_covariance_or_displacement_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="finite"):
        GaussianState(vacuum_cov(1), [np.nan, 0.0])


def test_tmss_reduced_spectrum_and_entropy():
    r = 0.6
    gamma = tmss_cov(r)
    assert np.abs(symplectic_eigenvalues(gamma) - 1.0).max() < 1e-10  # pure
    reduced = gamma[:2, :2]
    assert symplectic_eigenvalues(reduced)[0] == pytest.approx(np.cosh(2 * r), abs=1e-10)
    mu = np.cosh(2 * r)
    expect = ((mu + 1) / 2 * np.log2((mu + 1) / 2) - (mu - 1) / 2 * np.log2((mu - 1) / 2))
    assert gaussian_entropy(gamma, 1) == pytest.approx(expect, abs=1e-10)


def test_entropy_monotone_in_squeezing_and_zero_for_product():
    assert gaussian_entropy(vacuum_cov(2), 1) == pytest.approx(0.0, abs=1e-12)
    values = [gaussian_entropy(tmss_cov(r), 1) for r in np.linspace(0.1, 1.2, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        gaussian_entropy(thermal_cov(1.0), 1)  # mixed global state


def test_log_negativity_tmss_and_separable():
    assert gaussian_log_negativity(vacuum_cov(2), 1) == pytest.approx(0.0, abs=1e-12)
    for r in (0.3, 0.8, 1.0):
        assert gaussian_log_negativity(tmss_cov(r), 1) == pytest.approx(
            2 * r / np.log(2), abs=1e-8)


def test_ppt_criterion_matches_negativity():
    for r in (0.0, 0.2, 0.7):
        gamma = tmss_cov(r)
        en = gaussian_log_negativity(gamma, 1)
        cond = ppt_condition(gamma, 1)
        if r == 0.0:
            assert en == pytest.approx(0.0, abs=1e-12) and cond > -1e-10
        else:
            assert en > 0.0 and cond < -1e-8


def test_spectrum_invariant_under_symplectics(rng):
    gamma = tmss_cov(0.5)
    s = (embed_symplectic(squeezer_symplectic(0.3, 0.9), [0], 2)
         @ beamsplitter_symplectic(0.7)
         @ embed_symplectic(phase_symplectic(1.3), [1], 2))
    rotated = s @ gamma @ s.T
    assert np.abs(np.sort(symplectic_eigenvalues(rotated))
                  - np.sort(symplectic_eigenvalues(gamma))).max() < 1e-8


def tmss_fock_log_negativity(r, n_cut):
    """Fock-truncated TMSS log-negativity from the same optical generators.

    The state is built by applying the squeezer and beam-splitter unitaries in
    the truncated Fock space (the beam-splitter action sparsely, so large
    cutoffs stay cheap); for the resulting pure state the partial-transpose
    trace norm is (sum of Schmidt coefficients)^2 exactly.
    """
    from scipy.sparse import diags, kron
    from scipy.sparse.linalg import expm_multiply

    from hyqent import squeeze

    dim = n_cut + 1
    v = np.kron(squeeze(0.0, r, n_cut)[:, 0], squeeze(0.0, -r, n_cut)[:, 0])
    a = diags(np.sqrt(np.arange(1, dim)), 1)
    gen = (np.pi / 4) * (kron(a, a.T) - kron(a.T, a))
    v = np.asarray(expm_multiply(gen, v))
    v /= np.linalg.norm(v)
    s = np.linalg.svd(v.reshape(dim, dim), compute_uv=False)
    return float(2 * np.log2(s.sum()))


def test_fock_truncated_cross_check():
    for r in (0.5, 1.0):
        en_fock = tmss_fock_log_negativity(r, 80)
        en_gauss = gaussian_log_negativity(tmss_cov(r), 1)
        assert abs(en_fock - en_gauss) < 1e-4, r
