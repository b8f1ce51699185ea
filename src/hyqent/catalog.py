"""Constructors for the named states of the toolbox.

Every constructor returns a NamedState with a stable string id (also used by
the command-line front end), its parameters, and a payload: a HybridState on
its site layout (qudit-qumode, two qumodes, one qumode, or the qubus's qumode
and two qubits), a plain DV ket with dims, or one of the truly-hybrid
descriptors.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import ThermalChannelParams, apply_thermal
from .errors import DegenerateNormalization
from .kets import MODE, HybridState, InfiniteHybridFamily, SymbolicKet, term_norm


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


def two_mode_cat(alpha, phi):
    """(|alpha, alpha> + e^{i phi} |-alpha, -alpha>) / sqrt(N_phi), two qumodes.

    N_phi = 2 + 2 e^{-4|alpha|^2} cos(phi); the phi = pi, alpha -> 0 corner is
    a degenerate zero-norm limit and rejected.
    """
    alpha = complex(alpha)
    norm = 2.0 + 2.0 * np.exp(-4.0 * abs(alpha) ** 2) * np.cos(phi)
    if norm < 1e-14:
        raise DegenerateNormalization("two-mode cat norm vanishes (phi=pi, alpha->0)")
    ka, kb = SymbolicKet.coherent(alpha), SymbolicKet.coherent(-alpha)
    pure = HybridState.pure((MODE, MODE),
                            [(1.0 / np.sqrt(norm), (ka, ka)),
                             (np.exp(1j * phi) / np.sqrt(norm), (kb, kb))])
    return NamedState("two-mode-cat", {"alpha": alpha, "phi": phi}, pure)


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


def binary_coherent(alpha, phi=0.0):
    """The workhorse (|0>|alpha> + e^{i phi} |1>|-alpha>)/sqrt(2)."""
    named = qubit_qumode(0.5, phi, SymbolicKet.coherent(alpha),
                         SymbolicKet.coherent(-complex(alpha)))
    return NamedState("binary-coherent", {"alpha": complex(alpha), "phi": phi},
                      named.payload)


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
    from .channels import amplitude_damp

    base = binary_coherent(alpha, phi).payload
    return NamedState("damped-binary-coherent",
                      {"alpha": complex(alpha), "eta": eta, "phi": phi},
                      amplitude_damp(base, eta))


def qutrit_qumode(alpha):
    """(|0>|vac> + |1>|alpha> + |2>|-alpha>)/sqrt(3)."""
    alpha = complex(alpha)
    s = HybridState.pure(3, [
        (1.0 / np.sqrt(3.0), 0, SymbolicKet.vacuum()),
        (1.0 / np.sqrt(3.0), 1, SymbolicKet.coherent(alpha)),
        (1.0 / np.sqrt(3.0), 2, SymbolicKet.coherent(-alpha)),
    ])
    return NamedState("qutrit-qumode", {"alpha": alpha}, s)


def mixed23(p, alpha):
    """Two-term mixture holding three kets vac, +-alpha; effectively 2 x 3."""
    alpha = complex(alpha)
    vac = SymbolicKet.vacuum()
    plus = [(1 / np.sqrt(2), 0, vac), (1 / np.sqrt(2), 1, SymbolicKet.coherent(alpha))]
    minus = [(1 / np.sqrt(2), 0, vac), (1 / np.sqrt(2), 1, SymbolicKet.coherent(-alpha))]
    terms = [(w, b) for w, b in [(p, plus), (1.0 - p, minus)] if w > 0]
    return NamedState("mixed-23", {"p": p, "alpha": alpha}, HybridState(2, terms))


def mixed24(p, alpha):
    """Two-term mixture holding the four kets +-alpha, +-i alpha; effectively 2 x 4."""
    alpha = complex(alpha)
    t1 = [(1 / np.sqrt(2), 0, SymbolicKet.coherent(alpha)),
          (1 / np.sqrt(2), 1, SymbolicKet.coherent(-alpha))]
    t2 = [(1 / np.sqrt(2), 0, SymbolicKet.coherent(1j * alpha)),
          (1 / np.sqrt(2), 1, SymbolicKet.coherent(-1j * alpha))]
    terms = [(w, b) for w, b in [(p, t1), (1.0 - p, t2)] if w > 0]
    return NamedState("mixed-24", {"p": p, "alpha": alpha}, HybridState(2, terms))


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
    base = binary_coherent(alpha, phi).payload
    out = apply_thermal(base, ThermalChannelParams(eta, n_th))
    return NamedState("thermal-output",
                      {"alpha": complex(alpha), "eta": eta, "n_th": n_th, "phi": phi}, out)


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
    if abs(q) > 1.0 + 1e-12:
        raise ValueError("overlap magnitude must be <= 1")
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[6] = q / np.sqrt(2.0)
    v[7] = np.sqrt(max(0.0, 1.0 - abs(q) ** 2)) / np.sqrt(2.0)
    return NamedState("tripartite-qqm", {"q": q}, DiscreteKet(v, (2, 2, 2)))


def tripartite_qmm(q_phi, q_psi):
    """Qubit-qumode-qumode state in its compressed three-qubit form.

    Both qumodes are expanded in their own two-element bases; the five
    coefficients follow from the two overlaps alone.  (0, 0) is the GHZ state.
    """
    qf, qp = complex(q_phi), complex(q_psi)
    if abs(qf) > 1 + 1e-12 or abs(qp) > 1 + 1e-12:
        raise ValueError("overlap magnitudes must be <= 1")
    sf = np.sqrt(max(0.0, 1.0 - abs(qf) ** 2))
    sp = np.sqrt(max(0.0, 1.0 - abs(qp) ** 2))
    v = np.zeros(8, dtype=complex)
    v[0b000] = 1.0 / np.sqrt(2.0)
    v[0b100] = qf * qp / np.sqrt(2.0)
    v[0b110] = qp * sf / np.sqrt(2.0)
    v[0b101] = qf * sp / np.sqrt(2.0)
    v[0b111] = sf * sp / np.sqrt(2.0)
    return NamedState("tripartite-qmm", {"q_phi": qf, "q_psi": qp},
                      DiscreteKet(v, (2, 2, 2)))


def jcm_generate(alpha, varphi):
    """Dispersive qubit-qumode interaction output, (|0>|a e^{i phi}> + |1>|a e^{-i phi}>)/sqrt(2).

    The conditional phase-space rotation exp(i phi sigma_z n) on |alpha> times
    a balanced qubit superposition.
    """
    alpha = complex(alpha)
    k0 = SymbolicKet.coherent(alpha * np.exp(1j * varphi))
    k1 = SymbolicKet.coherent(alpha * np.exp(-1j * varphi))
    s = HybridState.pure(2, [(1 / np.sqrt(2), 0, k0), (1 / np.sqrt(2), 1, k1)])
    return NamedState("jcm", {"alpha": alpha, "varphi": varphi}, s)


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
    s = HybridState.pure(2, [(1 / np.sqrt(2), 0, SymbolicKet.coherent(a)),
                             (np.exp(1j * phi) / np.sqrt(2), 1, SymbolicKet.coherent(-a))])
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
    """F = (1 + e^{-(1-eta) alpha^2 (1 - cos theta)}) / 2 of the qubus mixture."""
    return float(0.5 * (1.0 + np.exp(-(1.0 - eta) * abs(alpha) ** 2 * (1.0 - np.cos(theta)))))


def qubus_state(alpha, theta, eta):
    """Lossy qubus after entangling two qubits: F |Psi+><Psi+| + (1-F) |Psi-><Psi-|.

    |Psi+-> = |sqrt(eta) a>|Phi2+->/sqrt(2) +- e^{-i phi}|sqrt(eta) a e^{i th}>|10>/2
              + e^{i phi}|sqrt(eta) a e^{-i th}>|01>/2,  phi = eta a^2 sin(theta).
    Sites ordered (qumode bus, qubit, qubit).
    """
    alpha = complex(alpha)
    f = qubus_fidelity(alpha, theta, eta)
    varphi = eta * abs(alpha) ** 2 * np.sin(theta)
    k0 = SymbolicKet.coherent(np.sqrt(eta) * alpha)
    kp = SymbolicKet.coherent(np.sqrt(eta) * alpha * np.exp(1j * theta))
    km = SymbolicKet.coherent(np.sqrt(eta) * alpha * np.exp(-1j * theta))

    def psi(s):
        return [(0.5, (k0, 0, 0)), (s * 0.5, (k0, 1, 1)),
                (s * 0.5 * np.exp(-1j * varphi), (kp, 1, 0)),
                (0.5 * np.exp(1j * varphi), (km, 0, 1))]

    terms = [(w, psi(s)) for w, s in [(f, +1.0), (1.0 - f, -1.0)] if w > 0]
    mix = HybridState((MODE, 2, 2), terms)
    return NamedState("qubus", {"alpha": alpha, "theta": theta, "eta": eta}, mix,
                      extra={"fidelity": f})


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
