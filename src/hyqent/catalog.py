"""Constructors for the named states of the toolbox.

Every constructor returns a NamedState with a stable string id (also used by
the command-line front end), its parameters, and a payload: a HybridState on
its site layout (qudit-qumode, two qumodes, one qumode, or the qubus's qumode
and two qubits), a plain DV ket with dims, or one of the truly-hybrid
descriptors.

The constructors of the exact sweep families (two_mode_cat, binary_coherent,
damped_binary_coherent, thermal_output, qutrit_qumode, mixed23, mixed24,
qubus_state, tripartite_qmm) broadcast over array parameters: P points give
a NamedState whose params hold the arrays and whose payload is a tuple of
(index, state) groups, one stack per template (see HybridState.stack), each
point's values bit for bit those of its scalar call.  Scalar parameters are
the one-point case, and its payload is the state itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import ThermalChannelParams, amplitude_damp, apply_thermal
from .composite import point_values
from .errors import DegenerateNormalization
from .kets import MODE, HybridState, InfiniteHybridFamily, SymbolicKet, term_norm

COHERENT = (0, 0.0, 0.0)  # the (k, r, theta) form of a coherent ket


@dataclass(frozen=True)
class DiscreteKet:
    """Plain finite-dimensional pure state with subsystem dims."""

    vector: np.ndarray
    dims: tuple


@dataclass(frozen=True)
class NamedState:
    id: str
    params: dict
    payload: object
    extra: dict = field(default_factory=dict)


def _points(*values):
    """The values as 1-D arrays of one length P, and whether every value was a scalar."""
    return (np.broadcast_arrays(*[np.atleast_1d(v) for v in values]),
            all(np.ndim(v) == 0 for v in values))


def _value(x, single):
    """The one value of a one-point array as a Python scalar; the array itself otherwise."""
    return x[0].item() if single else x


def _abs2(z):
    """|z|^2 as abs(z) ** 2 gives it for a Python complex z: a hypot, then a pow."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _named(id, params, groups, single, extra=None):
    """NamedState of one point (payload its state) or of P points (the (index, state) groups)."""
    return NamedState(id, params, groups[0][1] if single else tuple(groups), extra or {})


def _pure(sites, columns, forms, c, amps, single):
    """(index, HybridState) groups of one-term states: coefficients c (P, branches)."""
    return HybridState.stack(sites, (c.shape[1],), columns, forms, np.ones((len(c), 1)), c,
                             amps, single=single)


def two_mode_cat(alpha, phi):
    """(|alpha, alpha> + e^{i phi} |-alpha, -alpha>) / sqrt(N_phi), two qumodes.

    N_phi = 2 + 2 e^{-4|alpha|^2} cos(phi); the phi = pi, alpha -> 0 corner is
    a degenerate zero-norm limit and rejected.
    """
    (a, phi_), single = _points(alpha, phi)
    a = a.astype(complex)
    norm = 2.0 + 2.0 * np.exp(-4.0 * _abs2(a)) * np.cos(phi_)
    bad = ~(norm >= 1e-14)
    if bad.any():
        raise DegenerateNormalization(f"two-mode cat norm is {norm[bad][0]} "
                                      f"(zero at phi=pi, alpha->0)")
    c = np.stack([1.0 / np.sqrt(norm), np.exp(1j * phi_) / np.sqrt(norm)], axis=1)
    amps = np.stack([a, -a], axis=1)
    groups = _pure((MODE, MODE), ((0, 1), (0, 1)), ((COHERENT,) * 2,) * 2, c, (amps, amps),
                   single)
    return _named("two-mode-cat", {"alpha": _value(a, single), "phi": phi}, groups, single)


def qubit_qumode(c=0.5, phi=0.0, ket0=SymbolicKet.vacuum(), ket1=SymbolicKet.coherent(1.0)):
    """sqrt(c)|0>|ket0> + e^{i phi} sqrt(1-c)|1>|ket1> with c in [0, 1].

    Defaults: c = 1/2, phi = 0, ket0 the vacuum and ket1 the coherent ket |alpha = 1>.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    branches = []
    if c > 0:
        branches.append((np.sqrt(c), 0, ket0))
    if c < 1:
        branches.append((np.exp(1j * phi) * np.sqrt(1.0 - c), 1, ket1))
    state = HybridState.pure(2, branches)
    return NamedState("qubit-qumode", {"c": c, "phi": phi}, state)


def _binary(a, phi, single=False):
    """(index, HybridState) groups of the binary-coherent states at amplitudes a, phases phi."""
    c = np.stack(np.broadcast_arrays(np.sqrt(0.5), np.exp(1j * phi) * np.sqrt(1.0 - 0.5)), axis=1)
    return _pure((2, MODE), ((0, 1), (0, 1)), ((COHERENT,) * 2,), c, (np.stack([a, -a], axis=1),),
                 single)


def binary_coherent(alpha, phi=0.0):
    """The workhorse (|0>|alpha> + e^{i phi} |1>|-alpha>)/sqrt(2)."""
    (a, phi_), single = _points(alpha, phi)
    a = a.astype(complex)
    return _named("binary-coherent", {"alpha": _value(a, single), "phi": phi},
                  _binary(a, phi_, single), single)


def squeezed_binary_coherent(alpha, r, theta=0.0, phi=0.0):
    """Binary-coherent state squeezed in the qumode, S(xi)(|0>|a> + |1>|-a>)/sqrt(2)."""
    k0 = SymbolicKet.squeezed_coherent(alpha, r, theta)
    k1 = SymbolicKet.squeezed_coherent(-complex(alpha), r, theta)
    named = qubit_qumode(0.5, phi, k0, k1)
    return NamedState("squeezed-binary-coherent",
                      {"alpha": complex(alpha), "r": r, "theta": theta, "phi": phi},
                      named.payload)


def damped_binary_coherent(alpha, eta, phi=0.0):
    """Binary-coherent state after one-sided photon loss, the (1 +- tau)/2 mixture."""
    (a, eta_, phi_), single = _points(alpha, eta, phi)
    a = a.astype(complex)
    groups = []
    for index, base in _binary(a, phi_, single):
        damped = amplitude_damp(base, eta if single else eta_[index])
        groups += [(index, damped)] if single else [(index[sub], s) for sub, s in damped]
    return _named("damped-binary-coherent", {"alpha": _value(a, single), "eta": eta, "phi": phi},
                  groups, single)


def qutrit_qumode(alpha):
    """(|0>|vac> + |1>|alpha> + |2>|-alpha>)/sqrt(3)."""
    (a,), single = _points(alpha)
    a = a.astype(complex)
    c = np.full((len(a), 3), 1.0 / np.sqrt(3.0), dtype=complex)
    groups = _pure((3, MODE), ((0, 1, 2), (0, 1, 2)), ((COHERENT,) * 3,), c,
                   (np.stack([np.zeros_like(a), a, -a], axis=1),), single)
    return _named("qutrit-qumode", {"alpha": _value(a, single)}, groups, single)


def _two_terms(p, amps, slots, single):
    """Groups of the mixture p |psi_1><psi_1| + (1 - p) |psi_2><psi_2| on (2, MODE).

    Each term is (|0>|k_0> + |1>|k_1>)/sqrt(2) with its kets at the slots of
    amps; a term of weight 0 is left out.
    """
    w = np.stack([p, 1.0 - p], axis=1)
    c = np.full((len(p), 4), 1 / np.sqrt(2), dtype=complex)
    return HybridState.stack((2, MODE), (2, 2), ((0, 1, 0, 1), slots),
                             ((COHERENT,) * amps.shape[1],), w, c, (amps,),
                             keep=np.repeat(w > 0, 2, axis=1), single=single)


def mixed23(p, alpha):
    """Two-term mixture holding three kets vac, +-alpha; effectively 2 x 3."""
    (p_, a), single = _points(p, alpha)
    a = a.astype(complex)
    groups = _two_terms(p_, np.stack([np.zeros_like(a), a, -a], axis=1), (0, 1, 0, 2), single)
    return _named("mixed-23", {"p": p, "alpha": _value(a, single)}, groups, single)


def mixed24(p, alpha):
    """Two-term mixture holding the four kets +-alpha, +-i alpha; effectively 2 x 4."""
    (p_, a), single = _points(p, alpha)
    a = a.astype(complex)
    groups = _two_terms(p_, np.stack([a, -a, 1j * a, -1j * a], axis=1), (0, 1, 2, 3), single)
    return _named("mixed-24", {"p": p, "alpha": _value(a, single)}, groups, single)


def geometric_mixture(x, alpha, phi=0.0):
    """Truly hybrid family sum_n p_n |psi_n><psi_n| with p_n = ((1-x)/x) x^n.

    |psi_n> = (|0>|sqrt(n) alpha> + e^{i phi} |1>|-sqrt(n) alpha>)/sqrt(2) for
    n = 1, 2, ...; infinitely many linearly independent kets, so no finite
    orthonormal compression exists.  The payload is a lazily evaluated family
    whose truncations are available, with recorded neglected weight, as
    cross-checks only.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    alpha = complex(alpha)

    def term(n):
        a = np.sqrt(n) * alpha
        return ((1.0 - x) / x * x**n,
                [(1 / np.sqrt(2), 0, SymbolicKet.coherent(a)),
                 (np.exp(1j * phi) / np.sqrt(2), 1, SymbolicKet.coherent(-a))])

    fam = InfiniteHybridFamily(2, term)
    return NamedState("geometric-mixture", {"x": x, "alpha": alpha, "phi": phi}, fam)


def thermal_output(alpha, eta, n_th, phi=0.0):
    """Thermal-channel output of the binary-coherent state; truly hybrid."""
    (a, eta_, n_th_, phi_), single = _points(alpha, eta, n_th, phi)
    a = a.astype(complex)
    groups = [(index, apply_thermal(base, ThermalChannelParams(eta, n_th) if single
                                    else ThermalChannelParams(eta_[index], n_th_[index])))
              for index, base in _binary(a, phi_, single)]
    return _named("thermal-output",
                  {"alpha": _value(a, single), "eta": eta, "n_th": n_th, "phi": phi},
                  groups, single)


def ghz():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return NamedState("ghz", {}, DiscreteKet(v, (2, 2, 2)))


def w_state():
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0 / np.sqrt(3.0)
    return NamedState("w", {}, DiscreteKet(v, (2, 2, 2)))


def tripartite_qqm(q):
    """Qubit-qubit-qumode state in its compressed three-qubit form.

    (|000> + Q |110> + sqrt(1-|Q|^2) |111>)/sqrt(2), Q the qumode overlap;
    Q = 0 is the GHZ state, |Q| = 1 a Bell pair times a factored qumode.
    """
    q = complex(q)
    if not abs(q) <= 1.0 + 1e-12:
        raise ValueError("overlap magnitude must be <= 1")
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[6] = q / np.sqrt(2.0)
    v[7] = np.sqrt(max(0.0, 1.0 - abs(q) ** 2)) / np.sqrt(2.0)
    return NamedState("tripartite-qqm", {"q": q}, DiscreteKet(v, (2, 2, 2)))


def _python_product(x, y):
    """x * y / sqrt(2) with Python's complex arithmetic, elementwise.

    Python multiplies without a fused multiply-add and divides a complex by
    a float part by part, where numpy may fuse and divides by one reciprocal;
    this keeps the scalar constructor's last bits.
    """
    re, im = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    v = np.empty(re.shape, dtype=complex)
    v.real, v.imag = (re + im * 0.0) / np.sqrt(2.0), (im - re * 0.0) / np.sqrt(2.0)
    return v


def tripartite_qmm(q_phi, q_psi):
    """Qubit-qumode-qumode state in its compressed three-qubit form.

    Both qumodes are expanded in their own two-element bases; the five
    coefficients follow from the two overlaps alone.  (0, 0) is the GHZ state.
    """
    (qf, qp), single = _points(q_phi, q_psi)
    qf, qp = qf.astype(complex), qp.astype(complex)
    if not ((np.hypot(qf.real, qf.imag) <= 1 + 1e-12)
            & (np.hypot(qp.real, qp.imag) <= 1 + 1e-12)).all():
        raise ValueError("overlap magnitudes must be <= 1")
    sf = np.sqrt(np.maximum(0.0, 1.0 - _abs2(qf)))
    sp = np.sqrt(np.maximum(0.0, 1.0 - _abs2(qp)))
    v = np.zeros((len(qf), 8), dtype=complex)
    v[:, 0b000] = 1.0 / np.sqrt(2.0)
    v[:, 0b100] = _python_product(qf, qp)
    v[:, 0b110] = _python_product(qp, sf + 0j)
    v[:, 0b101] = _python_product(qf, sp + 0j)
    v[:, 0b111] = sf * sp / np.sqrt(2.0)
    return _named("tripartite-qmm", {"q_phi": _value(qf, single), "q_psi": _value(qp, single)},
                  [(np.arange(len(v)), DiscreteKet(v[0] if single else v, (2, 2, 2)))], single)


def jcm_generate(alpha, varphi):
    """Dispersive qubit-qumode interaction output, (|0>|a e^{i phi}> + |1>|a e^{-i phi}>)/sqrt(2).

    The conditional phase-space rotation exp(i phi sigma_z n) on |alpha> times
    a balanced qubit superposition.
    """
    alpha = complex(alpha)
    k0 = SymbolicKet.coherent(alpha * np.exp(1j * varphi))
    k1 = SymbolicKet.coherent(alpha * np.exp(-1j * varphi))
    return NamedState("jcm", {"alpha": alpha, "varphi": varphi},
                      qubit_qumode(0.5, 0.0, k0, k1).payload)


def project_to_cat(state, sign=+1):
    """Project the qubit of a pure 2-branch hybrid state onto |+-> = (|0> +- |1>)/sqrt(2).

    Returns the normalized single-mode cat superposition with its success
    probability; the two probabilities resolve the identity on the qubit.
    """
    if state.qudit_dim != 2 or not state.is_pure:
        raise ValueError("cat projection needs a pure qubit-qumode state")
    sgn = 1.0 if sign >= 0 else -1.0
    comps = {}
    for b in state.terms[0][1]:
        w = b.c / np.sqrt(2.0) * (sgn if b.m == 1 else 1.0)
        comps[b.ket] = comps.get(b.ket, 0.0) + w
    norm_sq = term_norm((MODE,), [(c, (k,)) for k, c in comps.items()])
    if norm_sq < 1e-14:
        raise DegenerateNormalization("cat projection has vanishing success probability")
    pure = HybridState.pure((MODE,), [(c / np.sqrt(norm_sq), (k,)) for k, c in comps.items()])
    return NamedState("cat-projection", {"sign": int(sgn)}, pure,
                      extra={"success_probability": float(norm_sq)})


def g_interaction_state(n, alpha, phi=0.0):
    """Geometric-family member generated by the sigma_z-controlled amplifier.

    The interaction e^{|alpha|^2 (1-n)/2} (sigma_z sqrt(n))^(a^dag a) maps the
    product ((|0> + e^{i phi}|1>)/sqrt(2)) |alpha> onto
    (|0>|sqrt(n) alpha> + e^{i phi}|1>|-sqrt(n) alpha>)/sqrt(2).
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    alpha = complex(alpha)
    a = np.sqrt(n) * alpha
    s = qubit_qumode(0.5, phi, SymbolicKet.coherent(a), SymbolicKet.coherent(-a)).payload
    return NamedState("g-interaction", {"n": int(n), "alpha": alpha, "phi": phi}, s)


def g_interaction_matrix(n, alpha, n_cut):
    """Truncated-operator realization of the interaction, for verification."""
    scale = np.exp(abs(complex(alpha)) ** 2 * (1.0 - n) / 2.0)
    levels = np.arange(n_cut + 1)
    up = scale * np.sqrt(float(n)) ** levels
    down = scale * (-np.sqrt(float(n))) ** levels
    sz_block = np.zeros((2 * (n_cut + 1),) * 2, dtype=complex)
    sz_block[: n_cut + 1, : n_cut + 1] = np.diag(up)
    sz_block[n_cut + 1:, n_cut + 1:] = np.diag(down)
    return sz_block


def qubus_fidelity(alpha, theta, eta):
    """F = (1 + e^{-(1-eta) alpha^2 (1 - cos theta)}) / 2 of the qubus mixture; arrays broadcast."""
    f = 0.5 * (1.0 + np.exp(-(1.0 - np.asarray(eta)) * _abs2(np.asarray(alpha, dtype=complex))
                            * (1.0 - np.cos(theta))))
    return point_values(f)


def qubus_state(alpha, theta, eta):
    """Lossy qubus after entangling two qubits: F |Psi+><Psi+| + (1-F) |Psi-><Psi-|.

    |Psi+-> = |sqrt(eta) a>|Phi2+->/sqrt(2) +- e^{-i phi}|sqrt(eta) a e^{i th}>|10>/2
              + e^{i phi}|sqrt(eta) a e^{-i th}>|01>/2,  phi = eta a^2 sin(theta).
    Sites ordered (qumode bus, qubit, qubit).
    """
    (a, theta_, eta_), single = _points(alpha, theta, eta)
    a = a.astype(complex)
    f = qubus_fidelity(a, theta_, eta_)
    varphi = eta_ * _abs2(a) * np.sin(theta_)
    k0 = np.sqrt(eta_) * a
    amps = np.stack([k0, k0 * np.exp(1j * theta_), k0 * np.exp(-1j * theta_)], axis=1)

    def psi(s):
        return [np.full_like(a, 0.5), np.full_like(a, s * 0.5), s * 0.5 * np.exp(-1j * varphi),
                0.5 * np.exp(1j * varphi)]

    w = np.stack([f, 1.0 - f], axis=1)
    groups = HybridState.stack((MODE, 2, 2), (4, 4), ((0, 0, 1, 2) * 2, (0, 1, 1, 0) * 2,
                                                      (0, 1, 0, 1) * 2),
                               ((COHERENT,) * 3,), w, np.stack(psi(+1.0) + psi(-1.0), axis=1),
                               (amps,), keep=np.repeat(w > 0, 4, axis=1), single=single)
    return _named("qubus", {"alpha": _value(a, single), "theta": theta, "eta": eta}, groups,
                  single, extra={"fidelity": _value(f, single)})


# the families whose constructors broadcast over array parameters
BROADCASTING = frozenset({"two-mode-cat", "binary-coherent", "damped-binary-coherent",
                          "thermal-output", "qutrit-qumode", "mixed-23", "mixed-24", "qubus",
                          "tripartite-qmm"})

FAMILIES = {
    "two-mode-cat": (two_mode_cat, ("alpha", "phi")),
    "qubit-qumode": (qubit_qumode, ("c", "phi", "ket0", "ket1")),
    "binary-coherent": (binary_coherent, ("alpha", "phi")),
    "squeezed-binary-coherent": (squeezed_binary_coherent, ("alpha", "r", "theta", "phi")),
    "damped-binary-coherent": (damped_binary_coherent, ("alpha", "eta", "phi")),
    "qutrit-qumode": (qutrit_qumode, ("alpha",)),
    "mixed-23": (mixed23, ("p", "alpha")),
    "mixed-24": (mixed24, ("p", "alpha")),
    "geometric-mixture": (geometric_mixture, ("x", "alpha", "phi")),
    "thermal-output": (thermal_output, ("alpha", "eta", "n_th", "phi")),
    "ghz": (ghz, ()),
    "w": (w_state, ()),
    "tripartite-qqm": (tripartite_qqm, ("q",)),
    "tripartite-qmm": (tripartite_qmm, ("q_phi", "q_psi")),
    "jcm": (jcm_generate, ("alpha", "varphi")),
    "qubus": (qubus_state, ("alpha", "theta", "eta")),
}
