import numpy as np
import pytest

from hyqent import (DegenerateNormalization, DensityMatrix, SymbolicKet, ckw,
                    compress, compress_vector, concurrence)
from hyqent.catalog import (FAMILIES, g_interaction_matrix, g_interaction_state,
                            ghz, jcm_generate, mixed24, project_to_cat,
                            qubus_fidelity, qubus_state, tripartite_qmm,
                            tripartite_qqm, two_mode_cat, w_state)


def test_two_mode_cat_norm_and_degenerate_corner():
    pure = two_mode_cat(0.8, 1.0).payload
    assert pure.norm_squared() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateNormalization):
        two_mode_cat(1e-9, np.pi)


def test_two_mode_cat_phi_pi_is_bell_like():
    v, dims = compress_vector(two_mode_cat(0.5, np.pi).payload)
    assert concurrence(DensityMatrix.from_ket(v, dims)) == pytest.approx(1.0, abs=1e-10)


def test_two_mode_cat_rejects_nan_amplitude():
    with pytest.raises(DegenerateNormalization, match="nan"):
        two_mode_cat(np.nan, 0.0)


@pytest.mark.parametrize("overlaps", [(np.nan,), (np.nan, 0.0), (0.0, np.nan)])
def test_tripartite_states_reject_nan_overlaps(overlaps):
    ctor = tripartite_qqm if len(overlaps) == 1 else tripartite_qmm
    with pytest.raises(ValueError, match="overlap magnitude"):
        ctor(*overlaps)


def test_mixed24_holds_four_kets():
    st = mixed24(0.4, 0.9).payload
    assert len(st.kets()) == 4


def test_ghz_w_tangles():
    assert ckw(ghz().payload.vector).tau_res == pytest.approx(1.0, abs=1e-12)
    assert ckw(w_state().payload.vector).tau_res == pytest.approx(0.0, abs=1e-12)


def test_tripartite_limits():
    # Q = 1: Bell pair between the qubits, qumode factored out
    rep = ckw(tripartite_qqm(1.0).payload.vector)
    assert rep.c2_ab == pytest.approx(1.0, abs=1e-12)
    assert rep.tau_res == pytest.approx(0.0, abs=1e-12)
    # both overlaps zero: exactly the GHZ state
    assert np.abs(tripartite_qmm(0.0, 0.0).payload.vector
                  - ghz().payload.vector).max() < 1e-12
    with pytest.raises(ValueError):
        tripartite_qqm(1.3)


def test_jcm_generation_and_projection():
    named = jcm_generate(1.2, 0.0)
    st = named.payload
    # varphi = 0: both branches hold the same ket, a product state
    assert len(st.kets()) == 1
    named = jcm_generate(1.2, 0.4)
    plus = project_to_cat(named.payload, +1)
    minus = project_to_cat(named.payload, -1)
    p_plus = plus.extra["success_probability"]
    p_minus = minus.extra["success_probability"]
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
    # projected kets overlap like the corresponding single-mode cats
    al, phi = 1.2, 0.4
    ov = np.exp(-abs(al) ** 2 / 2 - abs(al) ** 2 / 2
                + np.conj(al * np.exp(-1j * phi)) * al * np.exp(1j * phi))
    assert p_plus == pytest.approx((2 + 2 * ov.real) / 4, abs=1e-12)
    assert plus.payload.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_cat_projection_degenerate():
    named = jcm_generate(1.0, 0.0)  # identical branches: |-> projection kills it
    with pytest.raises(DegenerateNormalization):
        project_to_cat(named.payload, -1)


def test_g_interaction_matches_truncated_operator():
    for n in (1, 2, 4):
        al, phi = 0.8, 0.7
        target = g_interaction_state(n, al, phi).payload
        n_cut = 40
        g = g_interaction_matrix(n, al, n_cut)
        plus_alpha = SymbolicKet.coherent(al).to_fock(n_cut)
        qubit = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
        out = g @ np.kron(qubit, plus_alpha)
        expect = np.zeros_like(out)
        for b in target.terms[0][1]:
            e = np.zeros(2, dtype=complex)
            e[b.m] = 1.0
            expect += b.c * np.kron(e, b.ket.to_fock(n_cut, tail_tol=1e-6))
        assert np.abs(out - expect).max() < 1e-7, n
        assert abs(np.linalg.norm(out) - 1.0) < 1e-7


def test_qubus_fidelity_values():
    assert qubus_fidelity(1.0, 0.3, 1.0) == 1.0
    f = qubus_fidelity(1.0, 0.1, 0.9)
    assert f == pytest.approx(0.5 * (1 + np.exp(-0.1 * (1 - np.cos(0.1)))), abs=1e-14)


def test_qubus_theta_zero_factors():
    named = qubus_state(1.0, 0.0, 0.8)
    assert named.extra["fidelity"] == pytest.approx(1.0)
    mix = named.payload
    rho = compress(mix)
    # the bus occupies a single coherent ket: one-dimensional first factor
    assert rho.dims[0] == 1
    # remaining two-qubit state is the equal mixture of |Phi+-> rotated pieces;
    # at theta=0 phases vanish and the qubits are in (|00>+|11>+|10>+|01>)/2
    qubits = rho.matrix.reshape(4, 4)
    plus = np.ones(4) / 2.0
    assert np.abs(qubits - np.outer(plus, plus)).max() < 1e-10


def test_qubus_mixture_is_valid_state():
    named = qubus_state(0.9, 0.2, 0.7)
    mix = named.payload
    rho = compress(mix)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
    assert rho.dims[1:] == (2, 2)


def test_every_family_constructor_runs():
    samples = {
        "two-mode-cat": {"alpha": 0.7, "phi": 1.0},
        "qubit-qumode": {"c": 0.3, "phi": 0.5, "ket1": SymbolicKet.fock(1)},
        "binary-coherent": {"alpha": 0.9},
        "squeezed-binary-coherent": {"alpha": 0.9, "r": 0.4},
        "damped-binary-coherent": {"alpha": 0.9, "eta": 0.6},
        "qutrit-qumode": {"alpha": 0.9},
        "mixed-23": {"p": 0.4, "alpha": 0.9},
        "mixed-24": {"p": 0.4, "alpha": 0.9},
        "geometric-mixture": {"x": 0.5, "alpha": 0.6},
        "thermal-output": {"alpha": 0.9, "eta": 0.7, "n_th": 0.3},
        "ghz": {}, "w": {},
        "tripartite-qqm": {"q": 0.5},
        "tripartite-qmm": {"q_phi": 0.3, "q_psi": 0.6},
        "jcm": {"alpha": 1.0, "varphi": 0.3},
        "qubus": {"alpha": 1.0, "theta": 0.2, "eta": 0.9},
    }
    for family, (ctor, names) in FAMILIES.items():
        named = ctor(**samples[family])
        assert named.id == family
        assert set(samples[family]) <= set(names)
