"""Decoherence channels and channel-state duality.

Two redundant computation routes are kept first class for the thermal photon
noise channel: exact coherent-basis Gaussian-integral moments (no truncation)
and a truncated Kraus operator-sum with a recorded completeness residual.
The closed forms carry ground truth; the Kraus route carries generality.
"""

from dataclasses import dataclass

import numpy as np

from .composite import DensityMatrix
from .errors import UnsupportedKet
from .fock import overlap_coherent
from .kets import HybridState, SymbolicKet, gram_matrix, ladder_sum, term_norm

DEFAULT_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class KrausSet:
    """Finite operator-sum representation of a (possibly truncated) channel.

    Operators are stored by their diagonals: stored diagonal e belongs to
    operator ``owners[e]`` and adds sum_k diagonals[e, k] |k + shifts[e]><k|,
    so an operator with one nonzero diagonal (every thermal Kraus operator)
    costs one input-length row.  ``owners`` is nondecreasing.
    completeness_residual is the spectral norm of sum K^dag K - 1 on the input
    space; operators may be rectangular when the channel can add excitations.
    """

    shifts: np.ndarray
    diagonals: np.ndarray
    owners: np.ndarray
    output_dim: int
    completeness_residual: float

    @property
    def input_dim(self):
        return self.diagonals.shape[1]

    @property
    def operators(self):
        """Dense (output_dim, input_dim) operators in order, built on each access."""
        n_in = self.input_dim
        dense = np.zeros((self.owners[-1] + 1, self.output_dim, n_in), dtype=complex)
        rows = np.arange(n_in) + self.shifts[:, None]
        e, k = np.nonzero((rows >= 0) & (rows < self.output_dim))
        dense[self.owners[e], rows[e, k], k] = self.diagonals[e, k]
        return tuple(dense)


def make_kraus_set(operators):
    """KrausSet of dense operators, each split into its nonzero diagonals."""
    ops = np.stack([np.asarray(k, dtype=complex) for k in operators])
    _, n_out, n_in = ops.shape
    flat = ops.reshape(-1, n_in)
    s = flat.conj().T @ flat
    residual = float(np.abs(np.linalg.eigvalsh(s - np.eye(n_in))).max())
    shifts = np.arange(1 - n_in, n_out)
    rows = np.arange(n_in) + shifts[:, None]
    inside = (rows >= 0) & (rows < n_out)
    diags = np.where(inside, ops[:, np.clip(rows, 0, n_out - 1), np.arange(n_in)], 0.0)
    keep = diags.any(axis=2)
    keep[~keep.any(axis=1), n_in - 1] = True  # an all-zero operator keeps its main diagonal
    owners, which = np.nonzero(keep)
    return KrausSet(shifts[which], diags[owners, which], owners, n_out, residual)


def identity_kraus(dim):
    return make_kraus_set((np.eye(dim),))


def qubit_loss_kraus(eta):
    """Photon-number-encoded qubit loss: K0 = |0><0| + sqrt(eta)|1><1|, K1 = sqrt(1-eta)|0><1|."""
    k0 = np.diag([1.0, np.sqrt(eta)]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = np.sqrt(1.0 - eta)
    return make_kraus_set((k0, k1))


# ---------------------------------------------------------------------------
# amplitude damping on symbolic hybrid states


def require_coherent(state, what):
    """TypeError off the (d, "mode") layout; UnsupportedKet naming what on a non-coherent ket."""
    state.qudit_dim
    if any(b.ket.k or b.ket.r for _, branches in state.terms for b in branches):
        raise UnsupportedKet(f"{what} is implemented for coherent kets")


def amplitude_damp(state, eta):
    """Photon loss channel on the qumode side of a coherent-family HybridState.

    The beam splitter maps |alpha_i>_B |0>_E to |sqrt(eta) alpha_i>_B |e_i>_E
    with |e_i> = |sqrt(1-eta) alpha_i>, so tracing the environment turns a
    pure term sum_i c_i |m_i, alpha_i> into sum_ij c_i c_j* E_ij
    |m_i, sqrt(eta) alpha_i><m_j, sqrt(eta) alpha_j| with E_ij = <e_j|e_i>.
    The eigendecomposition E = sum_k lambda_k v_k v_k^dag splits this exactly
    into one pure term per eigenpair: |phi_k> = sum_i c_i v_ik |m_i, sqrt(eta)
    alpha_i>, normalized, with weight lambda_k <phi_k|phi_k> from term_norm,
    so branches may share a qudit level.  For two opposite amplitudes on two
    levels, E = [[1, tau], [tau, 1]] with tau = exp(-2(1-eta)|alpha|^2) has
    eigenvectors (1, +-1)/sqrt(2): the output is the two-projector mixture
    with weights (1 +- tau)/2, whatever the coefficients.
    """
    state.qudit_dim  # rejects layouts other than (d, "mode")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    if eta == 1.0:
        return state
    require_coherent(state, "the amplitude damping channel")
    out_terms = []
    for p, branches in state.terms:
        alphas = [b.ket.alpha for b in branches]
        env = gram_matrix([SymbolicKet.coherent(np.sqrt(1.0 - eta) * a) for a in alphas]).T
        kets = [SymbolicKet.coherent(np.sqrt(eta) * a) for a in alphas]
        lam, vecs = np.linalg.eigh(env)
        for weight, column in zip(p * lam, (np.array([b.c for b in branches])[:, None] * vecs).T):
            phi = [(a, (b.m, ket)) for a, b, ket in zip(column, branches, kets) if a != 0]
            norm = term_norm(state.sites, phi)
            if weight * norm > 1e-15:
                out_terms.append((weight * norm, [(a / np.sqrt(norm), v) for a, v in phi]))
    return HybridState(state.sites, out_terms)


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
        if not self.n_th >= 0.0:
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

    alpha, beta and the powers (k, l) broadcast against each other, so one
    call takes each dyad's overlap once for any number of moments; scalar
    arguments give a 0-d value.  The sum is kets.ladder_sum at
    c = (1-eta) n_th.  No truncation enters anywhere.
    """
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    s = np.sqrt(params.eta)
    return overlap_coherent(alpha, beta) * ladder_sum(*powers, s * alpha, s * np.conj(beta),
                                                      (1.0 - params.eta) * params.n_th)


def thermal_kraus(params, n_cut, weight_tol=DEFAULT_WEIGHT_TOL):
    """Truncated operator-sum decomposition of the thermal channel.

    K~_mn = sqrt(rho_n^th) <m|_E U |n>_E, where the beam splitter U maps
    A^dag to sqrt(eta) A^dag + sqrt(1-eta) B^dag and B^dag to
    sqrt(eta) B^dag - sqrt(1-eta) A^dag (A the mode, B the environment).
    U conserves photon number, so K_mn sends |k> to |n + k - m> only and is
    stored as one diagonal at shift n - m: psi_n[m, k] = <n+k-m, m|U|k, n>.
    The amplitudes are filled one photon number N = k + n at a time by
    applying U to |k, n> = (sqrt(k) A^dag |k-1, n> + sqrt(n) B^dag |k, n-1>)
    / N, so each new photon enters through both ports.  At (0.5, 1, 27) this
    keeps them within 1.3e-15 of a 50-digit evaluation, while the
    alternating binomial sum for the same amplitudes, or the recursion
    through one port alone, errs by up to 4.8e-9.  The environment cutoff
    n_env_cut = params.env_cutoff(weight_tol) leaves thermal weight below
    weight_tol, and the output space has dimension n_cut + n_env_cut + 1,
    so the only completeness deficit is that neglected thermal tail.
    """
    n_env_cut = params.env_cutoff(weight_tol)
    dim_in = n_cut + 1
    dim_out = n_cut + n_env_cut + 1
    t, r = np.sqrt(params.eta), np.sqrt(1.0 - params.eta)
    root = np.sqrt(np.arange(dim_out + 1))
    # amp[n + 1, m + 1, k + 1] = psi_n[m, k]; the zero border stands for k - 1,
    # n - 1 or m - 1 below zero
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
    keep = psi.any(axis=2) & (weight > 0.0)[:, None]
    n, m = np.nonzero(keep)
    diagonals = np.sqrt(weight)[n, None] * psi[n, m]
    residual = float(np.abs((diagonals**2).sum(axis=0) - 1.0).max())
    return KrausSet(n - m, diagonals, np.arange(len(n)), dim_out, residual)


# ---------------------------------------------------------------------------
# generic one-sided application, Choi duality, evolution equations


def _transfer_blocks(ks):
    """(s, s', T) for each pair of shifts that occur in one operator.

    T[k, k'] = sum_j c_{j,s}[k] conj(c_{j,s'}[k']) over the operators j that
    store diagonals at both shifts, so sum_j K_j rho K_j^dag gains
    T[k, k'] rho[k, k'] at [k + s, k' + s'].  Single-diagonal sets give s = s'
    pairs only.
    """
    owners = ks.owners
    first = np.searchsorted(owners, owners)
    width = np.searchsorted(owners, owners, side="right") - first
    left = np.repeat(np.arange(owners.size), width)
    right = np.repeat(first - np.cumsum(width) + width, width) + np.arange(left.size)
    pairs, group = np.unique(np.stack([ks.shifts[left], ks.shifts[right]], axis=1),
                             axis=0, return_inverse=True)
    group = group.ravel()
    for g, (s, s2) in enumerate(pairs):
        sel = group == g
        yield int(s), int(s2), ks.diagonals[left[sel]].T @ ks.diagonals[right[sel]].conj()


def apply_kraus(rho, ks, subsystem=1):
    """One-sided channel application sum_i (1 x K_i) rho (1 x K_i)^dag.

    Works on the stored diagonals: for each shift pair (s, s') of
    _transfer_blocks the subsystem's index pair (k, k') of rho is scaled by
    T[k, k'] and moved to (k + s, k' + s').  The output trace may fall short
    of one by at most the completeness residual.
    """
    dims = rho.dims
    subsystem = int(subsystem)
    if subsystem < 0 or subsystem >= len(dims):
        raise ValueError(f"invalid subsystem {subsystem}")
    n_in, n_out = ks.input_dim, ks.output_dim
    if n_in != dims[subsystem]:
        raise ValueError(
            f"Kraus input dim {n_in} does not match subsystem dim {dims[subsystem]}")
    lead, tail = int(np.prod(dims[:subsystem])), int(np.prod(dims[subsystem + 1:]))
    src = rho.matrix.reshape(lead, n_in, tail, lead, n_in, tail)
    out = np.zeros((lead, n_out, tail, lead, n_out, tail), dtype=complex)
    for s, s2, t in _transfer_blocks(ks):
        k = slice(max(0, -s), min(n_in, n_out - s))
        k2 = slice(max(0, -s2), min(n_in, n_out - s2))
        out[:, k.start + s:k.stop + s, :, :, k2.start + s2:k2.stop + s2, :] += (
            t[k, k2][:, None, None, :, None] * src[:, k, :, :, k2, :])
    new_dims = dims[:subsystem] + (n_out,) + dims[subsystem + 1:]
    in_deficit = abs(np.trace(rho.matrix).real - 1.0)
    return DensityMatrix(out.reshape(lead * n_out * tail, -1), new_dims,
                         trace_tol=ks.completeness_residual + in_deficit + 1e-9)


def choi_state(ks, d):
    """Channel-state dual (1 x Y)|Phi+_d><Phi+_d|."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    rho = DensityMatrix.from_ket(phi, (d, d))
    return apply_kraus(rho, ks, subsystem=1)


def _evolution_check(chi, ks, measure):
    """(M[(1 x Y) chi], M[(1 x Y) Phi+] * M[chi]) for a pure two-qubit chi and measure M."""
    rho = DensityMatrix.from_ket(np.asarray(chi, dtype=complex).ravel(), (2, 2))
    return measure(apply_kraus(rho, ks, subsystem=1)), measure(choi_state(ks, 2)) * measure(rho)


def concurrence_evolution_check(chi, ks):
    """Both sides of the pure-state concurrence evolution equation.

    Returns (C[(1 x Y) chi], C[(1 x Y) Phi+] * C[chi]); the two agree for any
    one-sided qubit channel and pure two-qubit input.
    """
    from .measures import concurrence

    return _evolution_check(chi, ks, concurrence)


def negativity_evolution_check(chi, ks):
    """Negativity analogue of the evolution product; generally violated."""
    from .measures import negativity

    return _evolution_check(chi, ks, negativity)


# ---------------------------------------------------------------------------
# thermal-channel output descriptor (truly hybrid)


@dataclass(frozen=True)
class ThermalHybridState:
    """Output of the thermal channel on a coherent-family hybrid state.

    Contains infinitely many qumode kets, so classify takes it as truly
    hybrid and it is never materialized; moments come from the exact dyad
    formula, and truncated_density offers the Kraus cross-check route.
    Construction checks the base state once: a qudit-qumode layout with
    coherent kets only.
    """

    base: HybridState
    params: ThermalChannelParams

    def __post_init__(self):
        require_coherent(self.base, "the thermal channel")

    def dyad_terms(self):
        """(weight, (m, m'), (alpha_i, alpha_j)) triples of the output.

        weight |m><m'| x Y(|alpha_i><alpha_j|) summed over the base state's
        terms and branch pairs.
        """
        return [(p * bi.c * np.conj(bj.c), (bi.m, bj.m), (bi.ket.alpha, bj.ket.alpha))
                for p, branches in self.base.terms for bi in branches for bj in branches]

    def truncated_density(self, n_cut):
        """Kraus-route truncation at the default tolerances; a cross-check, not the state."""
        return apply_kraus(self.base.to_fock_density(n_cut), thermal_kraus(self.params, n_cut), 1)


def apply_thermal(state, params):
    """Thermal channel on the qumode side of a coherent-family (d, "mode") HybridState.

    Identity when eta = 1 and n_th has no effect; other kets raise UnsupportedKet.
    """
    return ThermalHybridState(state, params)
