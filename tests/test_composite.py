import numpy as np
import pytest

from conftest import random_density, random_ket, random_unitary
from hyqent import DensityMatrix, partial_trace, partial_transpose, purity, tensor


def bell_phi_plus():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return DensityMatrix.from_ket(v, (2, 2))


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    m = np.eye(2) / 2
    m[0, 1] = 0.1
    with pytest.raises(ValueError):
        DensityMatrix(m, (2,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(bad, (2,))  # genuinely negative eigenvalue


@pytest.mark.parametrize("herm_tol", [1e-12, 1e-6])
def test_hermiticity_tolerance_is_on_the_modulus(herm_tol):
    # a skew entry at 45 degrees: each part is 0.71 of its modulus, so a
    # test on the parts alone would accept the matrix just outside the tolerance
    for scale, accepted in ((0.99, True), (1.01, False)):
        m = np.eye(2, dtype=complex) / 2
        m[1, 0] = 0.1 - 0.2j
        m[0, 1] = 0.1 + 0.2j + scale * herm_tol * np.exp(1j * np.pi / 4)
        if accepted:
            DensityMatrix(m, (2,), herm_tol=herm_tol)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                DensityMatrix(m, (2,), herm_tol=herm_tol)


def test_tiny_negative_eigenvalues_are_tolerated():
    m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    DensityMatrix(m, (2,))  # within the clipping band


def test_tensor_identity_and_product():
    ida = np.eye(2)
    assert np.allclose(tensor(ida, np.eye(3)), np.eye(6))
    qubit = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    coh = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), (2,))
    prod = tensor(qubit, coh)
    assert prod.dims == (2, 2)
    with pytest.raises(ValueError):
        tensor(qubit, np.eye(2))


def test_sigma_y_tensor_trace():
    sy = np.array([[0, -1j], [1j, 0]])
    assert abs(np.trace(tensor(sy, sy))) == 0.0


def test_partial_trace_product_and_bell(rng):
    ra = DensityMatrix(random_density(rng, 2), (2,))
    rb = DensityMatrix(random_density(rng, 3), (3,))
    joint = tensor(ra, rb)
    assert np.abs(partial_trace(joint, [0]).matrix - ra.matrix).max() < 1e-12
    assert np.abs(partial_trace(joint, [1]).matrix - rb.matrix).max() < 1e-12

    for side in (0, 1):
        red = partial_trace(bell_phi_plus(), [side])
        assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_ghz_leaves_separable_mixture():
    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2)
    rho = DensityMatrix.from_ket(v, (2, 2, 2))
    red = partial_trace(rho, [0, 1])
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.abs(red.matrix - expect).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(rho, [3])


def test_partial_transpose_properties(rng):
    rho = DensityMatrix(random_density(rng, 6), (2, 3))
    pt = partial_transpose(rho, 1)
    assert np.trace(pt) == pytest.approx(1.0)
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    again = partial_transpose(DensityMatrix(pt, rho.dims, eig_tol=10), 1)
    assert np.abs(again - rho.matrix).max() < 1e-14


def test_partial_transpose_separable_vs_bell(rng):
    ra = DensityMatrix(random_density(rng, 2), (2,))
    rb = DensityMatrix(random_density(rng, 2), (2,))
    sep = tensor(ra, rb)
    assert np.linalg.eigvalsh(partial_transpose(sep, 1)).min() > -1e-10
    ev = np.linalg.eigvalsh(partial_transpose(bell_phi_plus(), 1))
    assert ev.min() == pytest.approx(-0.5, abs=1e-12)


def test_purity_values(rng):
    v = random_ket(rng, 5)
    assert purity(DensityMatrix.from_ket(v, (5,))) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))) == pytest.approx(0.5)


def test_purity_of_damped_state():
    # two-projector mixture with orthogonal branches: purity = (1 + tau^2)/2
    from hyqent import amplitude_damp, compress
    from hyqent.catalog import binary_coherent

    eta, al = 0.5, 1.0
    damped = amplitude_damp(binary_coherent(al).payload, eta)
    tau = np.exp(-2 * (1 - eta) * al**2)
    assert purity(compress(damped)) == pytest.approx((1 + tau**2) / 2, abs=1e-12)


def _with_smallest_eigenvalue(rng, lam, dim, rank):
    """Trace-one Hermitian matrix with rank nonzero eigenvalues, the smallest lam."""
    spectrum = np.zeros(dim)
    spectrum[:rank - 1] = rng.uniform(0.5, 1.5, rank - 1)
    spectrum[:rank - 1] *= (1.0 - lam) / spectrum[:rank - 1].sum()
    spectrum[rank - 1] = lam
    u = random_unitary(rng, dim)
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("dim, rank", [(2, 2), (256, 128)])
def test_positivity_check_strength(rng, dim, rank):
    # eig_tol = 1e-10: an eigenvalue below -1e-10 is rejected and named
    for lam in (-2e-10, -1e-9):
        with pytest.raises(ValueError, match="negative eigenvalue") as exc:
            DensityMatrix(_with_smallest_eigenvalue(rng, lam, dim, rank), (dim,))
        assert float(str(exc.value).rsplit(" ", 1)[1]) == pytest.approx(lam, abs=1e-13)
    DensityMatrix(_with_smallest_eigenvalue(rng, -5e-11, dim, rank), (dim,))
