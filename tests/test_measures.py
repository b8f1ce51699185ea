import numpy as np
import pytest

from conftest import random_density, random_ket, random_unitary
from hyqent import (DensityMatrix, amplitude_damp, ckw, compress, compress_vector,
                    concurrence, entanglement_of_formation, entropy_of_entanglement,
                    log_negativity, majorizes, negativity, partial_transpose,
                    schmidt, tensor)
from hyqent.catalog import (binary_coherent, ghz, qutrit_qumode, tripartite_qmm,
                            tripartite_qqm, two_mode_cat, w_state)


def bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def test_entropy_bell_and_product():
    assert entropy_of_entanglement(bell(), (2, 2)) == pytest.approx(1.0, abs=1e-12)
    v = np.kron(random_ket(np.random.default_rng(3), 2),
                random_ket(np.random.default_rng(4), 5))
    assert entropy_of_entanglement(v, (2, 5)) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        entropy_of_entanglement(2 * bell(), (2, 2))


def test_entropy_qubit_qumode_closed_form():
    # lambda_pm = (1 pm sqrt(1 - 4 c (1-c)(1-|N|^2)))/2 for the two-branch state
    from hyqent import SymbolicKet
    from hyqent.catalog import qubit_qumode

    for c, al in [(0.5, 1.0), (0.3, 0.6), (0.7, 1.4)]:
        st = qubit_qumode(c, 0.4, SymbolicKet.coherent(al),
                          SymbolicKet.coherent(-al)).payload
        v, dims = compress_vector(st)
        n = np.exp(-2 * al**2)
        disc = np.sqrt(1 - 4 * c * (1 - c) * (1 - n**2))
        lam = np.array([(1 + disc) / 2, (1 - disc) / 2])
        expect = float(-(lam * np.log2(lam)).sum())
        assert entropy_of_entanglement(v, dims) == pytest.approx(expect, abs=1e-10)
    # identical kets: product state
    st = qubit_qumode(0.5, 0.0, SymbolicKet.coherent(1.0), SymbolicKet.coherent(1.0)).payload
    v, dims = compress_vector(st)
    assert entropy_of_entanglement(v, dims) == pytest.approx(0.0, abs=1e-10)


def test_entropy_is_phase_independent():
    from hyqent import SymbolicKet
    from hyqent.catalog import qubit_qumode

    values = []
    for phi in (0.0, 0.9, np.pi, 4.4):
        st = qubit_qumode(0.4, phi, SymbolicKet.coherent(0.8),
                          SymbolicKet.coherent(-0.8)).payload
        values.append(entropy_of_entanglement(*compress_vector(st)))
    assert np.ptp(values) < 1e-12


def test_qutrit_entropy_in_bits_approaches_log2_3():
    # base-2 logs throughout: maximal qutrit entanglement is log2(3) e-bits
    from hyqent.compression import compress_vector as cv

    values = [entropy_of_entanglement(*cv(qutrit_qumode(al).payload))
              for al in (1.0, 2.0, 3.5)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - np.log2(3)) < 1e-3


def test_schmidt_qutrit_reference_values():
    al = np.sqrt(2 * np.log(2))  # x = 1/2
    dec = schmidt(*compress_vector(qutrit_qumode(al).payload))
    assert np.abs(dec.coefficients - [0.76, 0.56, 0.33]).max() < 0.005


def test_schmidt_product_and_reconstruction(rng):
    v = np.kron(random_ket(rng, 3), random_ket(rng, 4))
    dec = schmidt(v, (3, 4))
    assert dec.rank == 1
    assert dec.coefficients[0] == pytest.approx(1.0)
    psi = random_ket(rng, 12)
    dec = schmidt(psi, (3, 4))
    rebuilt = dec.reconstruct()
    assert np.linalg.norm(rebuilt - psi) < 1e-8
    assert np.allclose(np.sort(dec.coefficients**2).sum(), 1.0, atol=1e-10)


def test_majorization_direction_and_incomparable():
    assert majorizes([0.5, 0.5], [1.0, 0.0])       # uniform below deterministic
    assert majorizes([0.25] * 4, [0.5, 0.3, 0.1, 0.1])
    assert not majorizes([1.0, 0.0], [0.5, 0.5])
    a, b = [0.5, 0.4, 0.1], [0.6, 0.2, 0.2]
    assert not majorizes(a, b) and not majorizes(b, a)
    assert majorizes([0.4, 0.3, 0.3], [0.5, 0.5])  # shorter vector is padded
    with pytest.raises(ValueError):
        majorizes([0.5, 0.2], [1.0, 0.0])


def test_majorizes_rejects_nan_entries():
    with pytest.raises(ValueError, match="summing to 1"):
        majorizes([np.nan, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="summing to 1"):
        majorizes([1.0, 0.0], [np.nan, 1.0])


@pytest.mark.parametrize("measure", [entropy_of_entanglement, schmidt])
def test_pure_state_measures_reject_nan_kets(measure):
    # LinAlgError is a ValueError too, so the message tells the two apart
    with pytest.raises(ValueError, match="not normalized"):
        measure([np.nan, 0.0, 0.0, 0.0], (2, 2))


def test_concurrence_cat_family():
    v, dims = compress_vector(two_mode_cat(0.7, np.pi).payload)
    assert concurrence(DensityMatrix.from_ket(v, dims)) == pytest.approx(1.0, abs=1e-10)
    al = 1.0
    v, dims = compress_vector(two_mode_cat(al, 0.0).payload)
    expect = (1 - np.exp(-4 * al**2)) / (1 + np.exp(-4 * al**2))
    assert concurrence(DensityMatrix.from_ket(v, dims)) == pytest.approx(expect, abs=1e-10)
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(np.eye(6, dtype=complex) / 6, (2, 3)))


def test_concurrence_of_qubit_times_trivial_factor_is_zero(rng):
    # dims (2, 1) and (1, 2) are product states, embedded into 2 x 2
    for dims in ((2, 1), (1, 2)):
        rho = DensityMatrix(random_density(rng, 2), dims)
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(random_density(rng, 3), (3, 1)))


def test_concurrence_of_qubit_times_trivial_factor_is_exactly_zero(rng):
    # a product by construction: no padded 4 x 4 and no root noise
    for dims in ((2, 1), (1, 2)):
        assert concurrence(DensityMatrix(random_density(rng, 2), dims)) == 0.0
    total_loss = compress(amplitude_damp(binary_coherent(0.9).payload, 0.0))
    assert total_loss.dims == (2, 1) and concurrence(total_loss) == 0.0


def test_negativity_bell_and_separable(rng):
    rho = DensityMatrix.from_ket(bell(), (2, 2))
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)
    assert log_negativity(rho) == pytest.approx(1.0, abs=1e-12)
    sep = tensor(DensityMatrix(random_density(rng, 2), (2,)),
                 DensityMatrix(random_density(rng, 3), (3,)))
    assert negativity(sep) == pytest.approx(0.0, abs=1e-10)


def test_negativity_side_independent(rng):
    for _ in range(5):
        rho = DensityMatrix(random_density(rng, 6), (2, 3))
        assert negativity(rho, 0) == pytest.approx(negativity(rho, 1), abs=1e-12)


def test_photon_encoded_loss_negativity_eigenvalue():
    # lambda_- = ((1-w)/2)(1-eta - sqrt((1-eta)^2 + 4 eta w/(1-w)))
    from hyqent import apply_kraus, qubit_loss_kraus

    w, eta = 0.3, 0.45
    chi = np.array([np.sqrt(w), 0, 0, np.sqrt(1 - w)])
    out = apply_kraus(DensityMatrix.from_ket(chi, (2, 2)), qubit_loss_kraus(eta), 1)
    ev = np.linalg.eigvalsh(partial_transpose(out, 1))
    lam = (1 - w) / 2 * (1 - eta - np.sqrt((1 - eta) ** 2 + 4 * eta * w / (1 - w)))
    assert ev.min() == pytest.approx(lam, abs=1e-12)
    assert negativity(out) == pytest.approx(-lam, abs=1e-12)


def test_local_unitary_invariance(rng):
    rho = DensityMatrix(random_density(rng, 4, rank=2), (2, 2))
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
    assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)
    assert negativity(rotated) == pytest.approx(negativity(rho), abs=1e-10)
    psi = random_ket(rng, 4)
    assert entropy_of_entanglement(u @ psi, (2, 2)) == pytest.approx(
        entropy_of_entanglement(psi, (2, 2)), abs=1e-10)


def test_formation_entropy_relation_for_pure_states(rng):
    for _ in range(25):
        psi = random_ket(rng, 4)
        rho = DensityMatrix.from_ket(psi, (2, 2))
        assert entanglement_of_formation(rho) == pytest.approx(
            entropy_of_entanglement(psi, (2, 2)), abs=1e-10)


def test_ckw_ghz_w():
    rep = ckw(ghz().payload.vector)
    assert rep.tau_res == pytest.approx(1.0, abs=1e-12)
    assert max(rep.c2_ab, rep.c2_ac, rep.c2_bc) < 1e-12
    rep = ckw(w_state().payload.vector)
    assert rep.tau_res == pytest.approx(0.0, abs=1e-12)
    assert rep.c2_ab == pytest.approx(4 / 9, abs=1e-12)
    with pytest.raises(ValueError):
        ckw(np.ones(8) / np.sqrt(8) * 1.2)


def test_ckw_monogamy_on_random_states(rng):
    for _ in range(1000):
        rep = ckw(random_ket(rng, 8))
        assert rep.c2_ab + rep.c2_ac <= rep.c2_a_bc + 1e-10
        assert rep.tau_res == pytest.approx(rep.c2_a_bc - rep.c2_ab - rep.c2_ac, abs=1e-12)


def test_tripartite_qqm_tangles():
    for q in (0.0, 0.35, 0.8, 1.0):
        rep = ckw(tripartite_qqm(q).payload.vector)
        assert rep.c2_ab == pytest.approx(q**2, abs=1e-10)
        assert rep.tau_res == pytest.approx(1 - q**2, abs=1e-10)
        assert rep.total == pytest.approx(1.0, abs=1e-10)


def test_tripartite_qmm_product_formulas():
    for qf, qp in [(0.0, 0.0), (0.3, 0.7), (0.9, 0.2), (1.0, 1.0)]:
        rep = ckw(tripartite_qmm(qf, qp).payload.vector)
        assert rep.c2_ab == pytest.approx(qp**2 * (1 - qf**2), abs=1e-10)
        assert rep.c2_ac == pytest.approx(qf**2 * (1 - qp**2), abs=1e-10)
        assert rep.c2_bc == pytest.approx(0.0, abs=1e-10)
        assert rep.tau_res == pytest.approx((1 - qf**2) * (1 - qp**2), abs=1e-10)
        assert rep.total == pytest.approx(1 - qf**2 * qp**2, abs=1e-10)
