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
from .kets import Family, HybridState, _term_norms, gram_matrix, ladder_sum

DEFAULT_WEIGHT_TOL = 1e-10
# thermal_kraus stages its amplitudes in one dense float array; a channel whose
# array would pass this many bytes is refused before anything is allocated
KRAUS_STAGING_LIMIT = 2**28


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
    if any(k or r for k, r, _ in state.forms[0]):
        raise UnsupportedKet(f"{what} is implemented for coherent kets")


def amplitude_damp(state, eta):
    """Photon loss channel on the qumode side of a coherent-family HybridState.

    The beam splitter maps |alpha_i>_B |0>_E to |sqrt(eta) alpha_i>_B |e_i>_E
    with |e_i> = |sqrt(1-eta) alpha_i>, so tracing the environment turns a
    pure term sum_i c_i |m_i, alpha_i> into sum_ij c_i c_j* E_ij
    |m_i, sqrt(eta) alpha_i><m_j, sqrt(eta) alpha_j| with E_ij = <e_j|e_i>.
    The eigendecomposition E = sum_k lambda_k v_k v_k^dag splits this exactly
    into one pure term per eigenpair: |phi_k> = sum_i c_i v_ik |m_i, sqrt(eta)
    alpha_i>, normalized, with weight lambda_k <phi_k|phi_k> from the term
    norm, so branches may share a qudit level.  A branch with c_i v_ik = 0
    and a term of weight at most 1e-15 are left out.  For two opposite
    amplitudes on two levels, E = [[1, tau], [tau, 1]] with
    tau = exp(-2(1-eta)|alpha|^2) has eigenvectors (1, +-1)/sqrt(2): the
    output is the two-projector mixture with weights (1 +- tau)/2, whatever
    the coefficients.

    A stack of P states takes one eta or P of them and gives the (index,
    HybridState) groups of its outputs (see HybridState.stack), one
    (P, n, n) environment Gram matrix and one batched eigh per term; points
    at eta = 1 keep their state.  One state gives its output state.
    """
    state.qudit_dim  # rejects layouts other than (d, "mode")
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (state.points,))
    if not ((0.0 <= eta) & (eta <= 1.0)).all():
        raise ValueError("transmissivity must lie in [0, 1]")
    lossless = eta == 1.0
    if lossless.all():
        return state if state.single else [(np.arange(state.points), state)]
    require_coherent(state, "the amplitude damping channel")
    lossy = np.flatnonzero(~lossless)
    s = state if lossy.size == state.points else state.take(lossy)
    e = eta[lossy, None]
    [amps], slots = s.amps, np.array(s.columns[1])
    env, damped = np.sqrt(1.0 - e) * amps, np.sqrt(e) * amps
    weights, coefficients, keep, columns = [], [], [], ([], [])
    start = 0
    for t, count in enumerate(s.counts):
        sel = slice(start, start + count)
        gram = gram_matrix(Family(np.zeros(count, dtype=int), env[:, slots[sel]]))
        lam, vecs = np.linalg.eigh(gram.swapaxes(-1, -2))
        terms = s.c[:, sel, None] * vecs  # column k: the branch coefficients of term k
        for k in range(count):
            a = terms[:, :, k]
            norm = _term_norms(s.sites, s.columns, s.forms, a, (damped,),
                               range(sel.start, sel.stop))
            weight = s.p[:, t] * lam[:, k] * norm
            with np.errstate(divide="ignore", invalid="ignore"):  # a dropped term's norm may be 0
                coefficients.append(a / np.sqrt(norm)[:, None])
            weights.append(weight)
            keep.append((a != 0) & (weight > 1e-15)[:, None])
            for column, source in zip(columns, s.columns):
                column.extend(source[sel])
        start += count
    groups = HybridState.stack(
        s.sites, tuple(count for count in s.counts for _ in range(count)),
        tuple(map(tuple, columns)), s.forms, np.stack(weights, axis=1),
        np.concatenate(coefficients, axis=1), (damped,), keep=np.concatenate(keep, axis=1),
        single=state.single)
    if state.single:
        return groups[0][1]
    return ([(np.flatnonzero(lossless), state.take(lossless))] if lossless.any() else []) + [
        (lossy[index], out) for index, out in groups]


# ---------------------------------------------------------------------------
# thermal photon noise channel


def _first(value, bad):
    """value itself if a scalar, else its first entry where bad, as a Python scalar."""
    return value if np.ndim(value) == 0 else np.asarray(value)[bad].flat[0].item()


@dataclass(frozen=True)
class ThermalChannelParams:
    """Beam-splitter transmissivity eta and mean thermal photon number n_th."""

    eta: float
    n_th: float

    def __post_init__(self):
        # eta and n_th may be arrays, one channel per point of a stack
        bad = ~((0.0 <= np.asarray(self.eta)) & (np.asarray(self.eta) <= 1.0))
        if bad.any():
            raise ValueError(f"eta must lie in [0, 1], got {_first(self.eta, bad)!r}")
        bad = ~((0.0 <= np.asarray(self.n_th)) & (np.asarray(self.n_th) < np.inf))
        if bad.any():
            raise ValueError(f"n_th must be finite and >= 0, got {_first(self.n_th, bad)!r}")

    def thermal_weight(self, n):
        """Thermal photon distribution n_th^n / (1 + n_th)^(n+1), as q^n / (1 + n_th) for q < 1."""
        return (self.n_th / (1.0 + self.n_th)) ** n / (1.0 + self.n_th)

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
    arguments give a 0-d value.  params is a ThermalChannelParams or an
    (eta, n_th) pair of arrays that broadcast like alpha and beta, one
    channel per point of a stack.  The sum is kets.ladder_sum at
    c = (1-eta) n_th.  No truncation enters anywhere.
    """
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    eta, n_th = (params.eta, params.n_th) if isinstance(params, ThermalChannelParams) else params
    s = np.sqrt(eta)
    return overlap_coherent(alpha, beta) * ladder_sum(*powers, s * alpha, s * np.conj(beta),
                                                      (1.0 - eta) * n_th)


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
    through one port alone, errs by up to 4.8e-9.  Layer N needs only layer
    N - 1, so the last two layers sit in two rolling (n_cut + 3) x
    (dim_out + 1) buffers indexed by k: the A port reads rows k - 1 and the
    B port rows k of one slice of the previous layer, and the factors
    sqrt(max(N - m, 0)), sqrt(k) and sqrt(n) are windows of one sqrt table,
    so a step gathers nothing.  Each amplitude is formed by the products
    and sums of the two-port formula, in its order, whatever the layout.
    The environment cutoff n_env_cut = params.env_cutoff(weight_tol) leaves
    thermal weight below weight_tol, and the output space has dimension
    n_cut + n_env_cut + 1, so the only completeness deficit is that
    neglected thermal tail.  Each layer is stored with one scatter into a
    dense (n_env_cut + 2) x (dim_out + 1) x (n_cut + 2) float staging
    array; past KRAUS_STAGING_LIMIT bytes (2**28, 268 MB) the call raises
    ValueError, giving the size, before anything is allocated.  So does an
    n_cut that is not an integer >= 0, or params holding one channel per
    point.
    """
    if not isinstance(n_cut, (int, np.integer)) or n_cut < 0:
        raise ValueError(f"n_cut must be an integer >= 0, got {n_cut!r}")
    if np.ndim(params.eta) or np.ndim(params.n_th):
        raise ValueError("params must hold one channel: thermal_kraus takes scalar eta and "
                         f"n_th, got shapes {np.shape(params.eta)} and {np.shape(params.n_th)}")
    n_env_cut = params.env_cutoff(weight_tol)
    dim_in = n_cut + 1
    dim_out = n_cut + n_env_cut + 1
    staging = (n_env_cut + 2) * (dim_out + 1) * (dim_in + 1) * 8
    if staging > KRAUS_STAGING_LIMIT:
        raise ValueError(f"thermal_kraus at n_th = {params.n_th}, n_cut = {n_cut} needs a "
                         f"{n_env_cut + 2} x {dim_out + 1} x {dim_in + 1} staging array "
                         f"({staging / 1e6:.0f} MB), past the {KRAUS_STAGING_LIMIT / 1e6:.0f} MB "
                         f"bound; lower n_cut or n_th, or raise weight_tol")
    t, r = np.sqrt(params.eta), np.sqrt(1.0 - params.eta)
    root = np.sqrt(np.arange(dim_out + 1))
    # out[m] = sqrt(max(N - m, 0)), m < dim_out, is window[dim_out - N:2 dim_out - N]
    window = np.concatenate((np.zeros(dim_out - 1), root))[::-1]
    # row 0 of a step's sums is the A port's t out psi[m] + r sqrt(m) psi[m - 1],
    # row 1 the B port's t sqrt(m) psi[m - 1] - r out psi[m]; y - z is y + (-z)
    # exactly, so the -r row rounds as the subtraction does
    out_coef = np.stack((t * window, -r * window))[:, None]
    in_coef = np.stack((r * root[:-1], t * root[:-1]))[:, None]
    # amp[n + 1, m + 1, k + 1] = psi_n[m, k]; the zero border stands for k - 1,
    # n - 1 or m - 1 below zero
    amp = np.zeros((n_env_cut + 2, dim_out + 1, dim_in + 1))
    amp[1, 1, 1] = 1.0
    # layer[k + 1, m + 1] = psi_{N-k}[m, k], with amp's border; a row that layer N
    # does not write is zero or holds layer N - 2 where layer N + 1 never reads it
    prev, layer = np.zeros((2, dim_in + 2, dim_out + 1))
    prev[1, 1] = 1.0
    ks = np.arange(dim_in)
    for total in range(1, dim_out):
        lo, hi = max(0, total - n_env_cut), min(total, n_cut) + 1  # k in [lo, hi)
        ports = prev[lo:hi + 1]  # rows k - 1 feed the A port, rows k the B port
        sums = out_coef[:, :, dim_out - total:2 * dim_out - total] * ports[:, 1:]
        sums += in_coef * ports[:, :-1]
        via_a, via_b = sums[0, :-1], sums[1, 1:]
        via_a *= root[lo:hi, None]
        via_b *= root[total - hi + 1:total - lo + 1][::-1, None]
        rows = layer[lo + 1:hi + 1]
        np.add(via_a, via_b, out=rows[:, 1:])
        rows /= total
        k = ks[lo:hi]
        amp[total - k + 1, :, k + 1] = rows
        prev, layer = layer, prev
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
    # one sort by (s, s') makes each pair's operators one contiguous run
    order = np.lexsort((ks.shifts[right], ks.shifts[left]))
    s, s2 = ks.shifts[left[order]], ks.shifts[right[order]]
    lhs, rhs = ks.diagonals[left[order]].T, ks.diagonals[right[order]].conj()
    ends = np.append(np.flatnonzero((s[1:] != s[:-1]) | (s2[1:] != s2[:-1])) + 1, s.size)
    for start, end in zip(np.append(0, ends[:-1]), ends):
        yield int(s[start]), int(s2[start]), lhs[:, start:end] @ rhs[start:end]


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
    coherent kets only.  A stacked base takes params of one channel or of
    one channel per point (arrays).
    """

    base: HybridState
    params: ThermalChannelParams

    def __post_init__(self):
        require_coherent(self.base, "the thermal channel")

    def take(self, sel):
        """The outputs of the base points sel (indices or a mask), each on its own channel."""
        eta, n_th = (np.broadcast_to(x, (self.base.points,))[sel]
                     for x in (self.params.eta, self.params.n_th))
        return ThermalHybridState(self.base.take(sel), ThermalChannelParams(eta, n_th))

    def truncated_density(self, n_cut):
        """Kraus-route truncation at the default tolerances; a cross-check, not the state."""
        return apply_kraus(self.base.to_fock_density(n_cut), thermal_kraus(self.params, n_cut), 1)


def apply_thermal(state, params):
    """Thermal channel on the qumode side of a coherent-family (d, "mode") HybridState.

    Identity when eta = 1 and n_th has no effect; other kets raise UnsupportedKet.
    """
    return ThermalHybridState(state, params)
