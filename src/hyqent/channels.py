"""Decoherence channels and channel-state duality.

Two redundant computation routes are kept first class for the thermal photon
noise channel: exact coherent-basis Gaussian-integral moments (no truncation)
and a truncated Kraus operator-sum with a recorded completeness residual.
The closed forms carry ground truth; the Kraus route carries generality.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from scipy.special import gammaln

from .composite import DensityMatrix
from .errors import CutoffTooSmall, UnsupportedKet
from .kets import COHERENT, HybridState, SymbolicKet

DEFAULT_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class KrausSet:
    """Finite operator-sum representation of a (possibly truncated) channel.

    completeness_residual is the spectral norm of sum K^dag K - 1 on the input
    space; operators may be rectangular when the channel can add excitations.
    """

    operators: tuple
    completeness_residual: float

    @property
    def input_dim(self):
        return self.operators[0].shape[1]

    @property
    def output_dim(self):
        return self.operators[0].shape[0]


def make_kraus_set(operators):
    ops = tuple(np.asarray(k, dtype=complex) for k in operators)
    s = sum(k.conj().T @ k for k in ops)
    residual = float(np.abs(np.linalg.eigvalsh(s - np.eye(ops[0].shape[1]))).max())
    return KrausSet(ops, residual)


def identity_kraus(dim):
    return KrausSet((np.eye(dim, dtype=complex),), 0.0)


def qubit_loss_kraus(eta):
    """Photon-number-encoded qubit loss: K0 = |0><0| + sqrt(eta)|1><1|, K1 = sqrt(1-eta)|0><1|."""
    k0 = np.diag([1.0, np.sqrt(eta)]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = np.sqrt(1.0 - eta)
    return make_kraus_set((k0, k1))


# ---------------------------------------------------------------------------
# amplitude damping on symbolic hybrid states


def _coherent_branches(branches):
    for b in branches:
        if b.ket.kind != COHERENT:
            raise UnsupportedKet("amplitude damping is implemented for coherent kets")
    return branches


def _damp_pure_term(branches, eta):
    """Exact output terms for one pure hybrid term under photon loss.

    The beam splitter maps |alpha>_B |0>_E to |sqrt(eta) alpha>_B
    |sqrt(1-eta) alpha>_E; tracing the environment in an orthonormal expansion
    of its (finitely many) coherent kets gives an exact finite mixture.
    """
    from .compression import ket_expansion  # local import to avoid a cycle

    env = [SymbolicKet.coherent(np.sqrt(1.0 - eta) * b.ket.alpha) for b in branches]
    kets = []
    for e in env:
        if e not in kets:
            kets.append(e)
    coeffs = ket_expansion(kets)
    rows = coeffs.matrix
    out = []
    for k in range(coeffs.basis_size):
        new = []
        weight = 0.0
        for b, e in zip(branches, env):
            amp = b.c * rows[kets.index(e), k]
            if amp != 0:
                new.append((amp, b.m, SymbolicKet.coherent(np.sqrt(eta) * b.ket.alpha)))
                weight += abs(amp) ** 2
        if weight > 1e-15:
            out.append((weight, [(c / np.sqrt(weight), m, ket) for c, m, ket in new]))
    return out


def amplitude_damp(state, eta):
    """Photon loss channel on the qumode side of a coherent-family HybridState.

    Coherent amplitudes scale by sqrt(eta); coherences between |alpha> and
    |beta> pick up the environment overlap factor.  For a balanced two-branch
    term with opposite amplitudes the output is returned in the two-projector
    form with weights (1 +- tau)/2, tau = exp(-2(1-eta)|alpha|^2); other terms
    go through an exact environment Gram-Schmidt expansion.
    """
    d = state.qudit_dim
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    if eta == 1.0:
        return state
    out_terms = []
    for p, branches in state.terms:
        branches = _coherent_branches(branches)
        if len(branches) == 2 and _is_balanced_opposite(branches):
            pieces = _damp_two_projector(branches, eta)
        else:
            pieces = _damp_pure_term(branches, eta)
        out_terms.extend((p * w, bs) for w, bs in pieces if p * w > 1e-15)
    return HybridState(d, out_terms)


def _is_balanced_opposite(branches):
    b0, b1 = branches
    return (np.isclose(abs(b0.c), 1 / np.sqrt(2)) and np.isclose(abs(b1.c), 1 / np.sqrt(2))
            and np.isclose(b1.ket.alpha, -b0.ket.alpha))


def _damp_two_projector(branches, eta):
    b0, b1 = branches
    alpha = b0.ket.alpha
    tau = np.exp(-2.0 * (1.0 - eta) * abs(alpha) ** 2)
    k0 = SymbolicKet.coherent(np.sqrt(eta) * alpha)
    k1 = SymbolicKet.coherent(-np.sqrt(eta) * alpha)
    plus = [(b0.c, b0.m, k0), (b1.c, b1.m, k1)]
    minus = [(b0.c, b0.m, k0), (-b1.c, b1.m, k1)]
    return [((1.0 + tau) / 2.0, plus), ((1.0 - tau) / 2.0, minus)]


# ---------------------------------------------------------------------------
# thermal photon noise channel


@dataclass(frozen=True)
class ThermalChannelParams:
    """Beam-splitter transmissivity eta and mean thermal photon number n_th."""

    eta: float
    n_th: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.n_th < 0.0:
            raise ValueError("n_th must be >= 0")

    def thermal_weight(self, n):
        """Thermal photon distribution n_th^n / (1 + n_th)^(n+1)."""
        return self.n_th**n / (1.0 + self.n_th) ** (n + 1)

    def env_cutoff(self, weight_tol=DEFAULT_WEIGHT_TOL):
        """Smallest env Fock cutoff whose neglected thermal weight is below tol."""
        if self.n_th == 0.0:
            return 0
        q = self.n_th / (1.0 + self.n_th)
        n = int(np.ceil(np.log(weight_tol) / np.log(q))) - 1
        return max(n, 0)


def thermal_dyad_moments(alpha, beta, params, powers):
    """Exact moment tr[Y(|alpha><beta|) a^dag^k a^l] of a thermal-channel dyad.

    The environment's Glauber-Sudarshan representation turns the channel
    output into a Gaussian integral over coherent states; all exponential
    factors collapse to the bare overlap <beta|alpha> and the polynomial part
    integrates against complex Gaussian moments E[g^j conj(g)^j] = j! n_th^j:

        <beta|alpha> * sum_j C(k,j) C(l,j) j! ((1-eta) n_th)^j
                       (sqrt(eta) conj(beta))^(k-j) (sqrt(eta) alpha)^(l-j)

    No truncation enters anywhere.
    """
    k, l = powers
    alpha, beta = complex(alpha), complex(beta)
    s = np.sqrt(params.eta)
    t2n = (1.0 - params.eta) * params.n_th
    ov = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(beta) * alpha)
    total = 0.0 + 0.0j
    for j in range(min(k, l) + 1):
        total += (comb(k, j) * comb(l, j) * factorial(j) * t2n**j
                  * (s * np.conj(beta)) ** (k - j) * (s * alpha) ** (l - j))
    return ov * total


def _kappa(m, k, n, eta):
    total = 0.0
    for i in range(max(0, m - k), min(n, m) + 1):
        total += (comb(n, i) * comb(k, m - i) * np.sqrt(eta) ** (k - m + 2 * i)
                  * np.sqrt(1.0 - eta) ** (n + m - 2 * i) * (-1) ** (n - i))
    return total


def thermal_kraus(params, n_cut, n_env_cut=None, weight_tol=DEFAULT_WEIGHT_TOL):
    """Truncated operator-sum decomposition of the thermal channel.

    K~_mn = sqrt(rho_n^th) K_mn with K_mn built in the Fock basis from the
    kappa_mkn(eta) coefficients.  Operators map the (n_cut+1)-dim input space
    into a larger output space of dimension n_cut + n_env_cut + 1, so the only
    completeness deficit is the neglected thermal tail.
    """
    if n_env_cut is None:
        n_env_cut = params.env_cutoff(weight_tol)
    else:
        q = params.n_th / (1.0 + params.n_th) if params.n_th > 0 else 0.0
        if q**(n_env_cut + 1) > weight_tol:
            raise CutoffTooSmall(
                f"environment cutoff {n_env_cut} leaves thermal weight above {weight_tol}",
                suggested=params.env_cutoff(weight_tol),
            )
    dim_in = n_cut + 1
    dim_out = n_cut + n_env_cut + 1
    lf = gammaln(np.arange(dim_in + dim_out + 2) + 1.0)
    ops = []
    for n in range(n_env_cut + 1):
        pn = params.thermal_weight(n) if params.n_th > 0 else (1.0 if n == 0 else 0.0)
        if pn == 0.0:
            continue
        for m in range(n + n_cut + 1):
            op = np.zeros((dim_out, dim_in))
            for k in range(max(0, m - n), n_cut + 1):
                out = n + k - m
                op[out, k] = np.exp(0.5 * (lf[m] + lf[out] - lf[k] - lf[n])) * _kappa(m, k, n, params.eta)
            if np.any(op):
                ops.append(np.sqrt(pn) * op.astype(complex))
    return make_kraus_set(ops)


# ---------------------------------------------------------------------------
# generic one-sided application, Choi duality, evolution equations


def _apply_kraus_vector(vector, dims, ops, subsystem):
    """K-mapped copies of a pure state; returns stacked vectors and new dims."""
    dims = tuple(dims)
    shaped = np.asarray(vector, dtype=complex).reshape(dims)
    moved = np.moveaxis(shaped, subsystem, -1)
    flat = moved.reshape(-1, dims[subsystem])
    stack = np.einsum("kob,rb->kro", ops, flat)
    out_dim = ops.shape[1]
    new_dims = dims[:subsystem] + (out_dim,) + dims[subsystem + 1:]
    lead = moved.shape[:-1]
    mapped = stack.reshape((ops.shape[0],) + lead + (out_dim,))
    mapped = np.moveaxis(mapped, -1, subsystem + 1)
    return mapped.reshape(ops.shape[0], -1), new_dims


def apply_kraus(rho, ks, subsystem=1, rank_tol=1e-13):
    """One-sided channel application sum_i (1 x K_i) rho (1 x K_i)^dag.

    The input is eigendecomposed and each pure component mapped in a single
    vectorized pass over the Kraus stack; the output trace may fall short of
    one by at most the completeness residual.
    """
    dims = rho.dims
    subsystem = int(subsystem)
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"invalid subsystem {subsystem}")
    if ks.input_dim != dims[subsystem]:
        raise ValueError(
            f"Kraus input dim {ks.input_dim} does not match subsystem dim {dims[subsystem]}")
    ops = np.stack([k for k in ks.operators])
    w, vecs = np.linalg.eigh(rho.matrix)
    out = None
    new_dims = None
    for weight, col in zip(w, vecs.T):
        if weight < rank_tol:
            continue
        mapped, new_dims = _apply_kraus_vector(col, dims, ops, subsystem)
        add = weight * (mapped.T @ mapped.conj())
        out = add if out is None else out + add
    in_deficit = abs(np.trace(rho.matrix).real - 1.0)
    return DensityMatrix(out, new_dims,
                         trace_tol=ks.completeness_residual + in_deficit + 1e-9)


def choi_state(ks, d):
    """Channel-state dual (1 x Y)|Phi+_d><Phi+_d|."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    rho = DensityMatrix.from_ket(phi, (d, d))
    return apply_kraus(rho, ks, subsystem=1)


def concurrence_evolution_check(chi, ks):
    """Both sides of the pure-state concurrence evolution equation.

    Returns (C[(1 x Y) chi], C[(1 x Y) Phi+] * C[chi]); the two agree for any
    one-sided qubit channel and pure two-qubit input.
    """
    from .measures import concurrence

    chi = np.asarray(chi, dtype=complex).ravel()
    rho = DensityMatrix.from_ket(chi, (2, 2))
    lhs = concurrence(apply_kraus(rho, ks, subsystem=1))
    factor = concurrence(choi_state(ks, 2))
    rhs = factor * concurrence(rho)
    return lhs, rhs


def negativity_evolution_check(chi, ks):
    """Negativity analogue of the evolution product; generally violated."""
    from .measures import negativity

    chi = np.asarray(chi, dtype=complex).ravel()
    rho = DensityMatrix.from_ket(chi, (2, 2))
    lhs = negativity(apply_kraus(rho, ks, subsystem=1))
    rhs = negativity(choi_state(ks, 2)) * negativity(rho)
    return lhs, rhs


# ---------------------------------------------------------------------------
# thermal-channel output descriptor (truly hybrid)


@dataclass(frozen=True)
class ThermalHybridState:
    """Output of the thermal channel on a coherent-family hybrid state.

    Contains infinitely many qumode kets, so it carries the truly-hybrid
    marker and is never materialized; moments come from the exact dyad
    formula, and truncated_density offers the Kraus cross-check route.
    """

    base: HybridState
    params: ThermalChannelParams
    truly_hybrid: bool = True

    def dyad_terms(self):
        """(weight, (m, m'), (alpha_i, alpha_j)) triples of the output.

        weight |m><m'| x Y(|alpha_i><alpha_j|) summed over the base state's
        terms and branch pairs.
        """
        out = []
        for p, branches in self.base.terms:
            for bi in branches:
                for bj in branches:
                    if bi.ket.kind != COHERENT or bj.ket.kind != COHERENT:
                        raise UnsupportedKet("exact dyad moments need coherent kets")
                    out.append((p * bi.c * np.conj(bj.c), (bi.m, bj.m),
                                (bi.ket.alpha, bj.ket.alpha)))
        return out

    def truncated_density(self, n_cut, weight_tol=DEFAULT_WEIGHT_TOL, tail_tol=1e-8):
        """Kraus-route truncation; a cross-check, not the state itself."""
        rho_in = self.base.to_fock_density(n_cut, tail_tol=tail_tol)
        ks = thermal_kraus(self.params, n_cut, weight_tol=weight_tol)
        return apply_kraus(rho_in, ks, subsystem=1)


def apply_thermal(state, params):
    """Thermal channel on the qumode side; identity when eta=1 and n_th has no effect."""
    state.qudit_dim  # rejects layouts other than (d, "mode")
    for _, branches in state.terms:
        _coherent_branches(branches)
    return ThermalHybridState(state, params)
