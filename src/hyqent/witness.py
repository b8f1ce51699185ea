"""Moment-matrix inseparability machinery and named determinant witnesses.

A bipartite state is NPT exactly when some principal minor of the matrix of
partially transposed moments is negative; on separable states every principal
minor is nonnegative.  Mode a is always the CV subsystem, mode b the qudit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (ThermalChannelParams, ThermalHybridState, require_coherent,
                       thermal_dyad_moments)
from .errors import InconsistentMoments, NumericInconsistency
from .fock import mode_operators
from .kets import HybridState

INCONCLUSIVE_BAND = 1e-12
MOMENT_HERM_TOL = 1e-8   # largest non-Hermitian moment deviation a provider may show
MINOR_IMAG_TOL = 1e-10   # largest relative imaginary part of a principal minor
BOUNDARY_XTOL = 1e-10    # bisection tolerance of witness_region boundary samples
SERIES_TOL = 1e-14       # tail bound of the sqrt(n)-weighted geometric sums
EMBED_PAD = 4            # Fock levels added to the qudit in qudit_mode="embedded"
IDENTITY_CHANNEL = ThermalChannelParams(1.0, 0.0)  # the channel a plain HybridState has passed


def heaviside_half(x):
    """Step function with the half-maximum convention Theta(0) = 1/2; arrays broadcast."""
    return _real(np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5)))


def _real(x):
    """A broadcast result: a Python float at scalar inputs, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def qudit_mode_operators(d):
    """Ladder operators adapted to a d-level system.

    The bosonic operators truncated to d levels: matrix elements sqrt(n) cut
    at the top level, so (a_d)^d = 0 and the commutator becomes
    diag(1, ..., 1, -(d-1)).  Witness determinants computed with these agree
    with the embedded infinite-dimensional reading for all moments used here.
    """
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    return mode_operators(d - 1)[:2]


def sv_multi_indices(max_total_degree, qudit_dim=None):
    """Ordered multi-indices (i1, i2, i3, i4) with total degree <= max.

    i1, i2 are a/a^dag powers, i3, i4 are b/b^dag powers.  Ordering is by
    total degree, then by the lexicographic tiebreak on (i3, i4, i1, i2); a
    fixed order keeps golden files stable although minors do not depend on it.
    Indices whose qudit powers reach (a_d)^d = 0 are dropped.
    """
    rng = range(max_total_degree + 1)
    out = [u for u in ((i1, i2, i3, i4) for i1 in rng for i2 in rng
                       for i3 in rng for i4 in rng) if sum(u) <= max_total_degree]
    if qudit_dim is not None:
        out = [u for u in out if u[2] < qudit_dim and u[3] < qudit_dim]
    out.sort(key=lambda u: (sum(u), u[2], u[3], u[0], u[1]))
    return out


@dataclass(frozen=True)
class MomentMatrix:
    """Hermitian matrix of partially transposed moments with its index map."""

    matrix: np.ndarray
    index_map: tuple

    def position(self, multi_index):
        return self.index_map.index(tuple(multi_index))


# rows generating the two workhorse determinants, in sv_multi_indices order
S1_INDICES = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1))
S2_INDICES = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def sv_moment_matrix(provider, max_total_degree, qudit_dim=None):
    """Matrix of moments of the partially transposed state.

    provider(a_words, b_words) receives integer arrays of shape (..., 4)
    and must return, over the same leading shape, the moments
    <a^dag^p a^q a^dag^r a^s  b^dag^t b^u b^dag^v b^w> of the *original*
    state for a-words (p, q, r, s) and b-words (t, u, v, w).  It is called
    once, with the (n, n, 4) words of the whole matrix; the b-power swap that
    implements the partial transposition happens here.  The word arrays are
    read-only and shared by every call with the same degree and qudit_dim.
    A provider inconsistent with Hermiticity beyond MOMENT_HERM_TOL is rejected.
    A provider given a template's states gives a (P, n, n) matrix.
    """
    idx = _index_set(max_total_degree, qudit_dim)
    return MomentMatrix(_moments(provider, idx), idx)


def moment_minor(provider, indices):
    """Principal minor of the moment matrix over the rows indices, from their moments alone.

    provider is called once with the words of those rows and columns only, and
    they pass the checks of sv_moment_matrix.  With indices in
    sv_multi_indices order (S1_INDICES, S2_INDICES) the value equals the
    principal_minor of sv_moment_matrix over the same rows.  A provider given
    a template's states returns one minor per state, (P,).
    """
    return _minor(_moments(provider, tuple(indices)))


@lru_cache(maxsize=16)
def _index_set(max_total_degree, qudit_dim):
    return tuple(sv_multi_indices(max_total_degree, qudit_dim))


@lru_cache(maxsize=16)
def _words(indices):
    """Read-only (n, n, 4) a- and b-words of the moment matrix over the multi-indices."""
    rows, cols = np.broadcast_arrays(np.array(indices)[:, None], np.array(indices)[None, :])
    a_words = np.concatenate([rows[..., [1, 0]], cols[..., [0, 1]]], axis=-1)
    b_words = np.concatenate([cols[..., [3, 2]], rows[..., [2, 3]]], axis=-1)
    a_words.flags.writeable = b_words.flags.writeable = False
    return a_words, b_words


def _first(bad):
    """Flat index of the first True of a boolean array, or None."""
    hits = np.flatnonzero(bad)
    return hits[0] if hits.size else None


def _moments(provider, indices):
    """Hermitian (..., n, n) moments over the multi-indices, from one provider call.

    Each point's entries must be Hermitian within MOMENT_HERM_TOL, and its
    normalization moment, the entry of the first index (0, 0, 0, 0), must be 1;
    the first point that fails raises what it raises alone.
    """
    a_words, b_words = _words(indices)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(provider(a_words, b_words), dtype=complex)
        adjoint = m.conj().swapaxes(-1, -2)
        skew = ~(np.abs(m - adjoint).max(axis=(-2, -1)) <= MOMENT_HERM_TOL)
        norm = m[..., 0, 0]
        first = _first(skew | ~(abs(norm - 1.0) <= MOMENT_HERM_TOL))
        if first is None:
            return (m + adjoint) / 2.0  # entries near the double range may overflow to inf
    if skew.flat[first]:
        raise InconsistentMoments("moment provider is not Hermitian-consistent")
    raise InconsistentMoments(f"normalization moment is {norm.flat[first]}, expected 1")


def _minor(sub):
    """Real determinants of principal submatrices (..., k, k), by one batched det.

    A determinant that is not finite, or whose imaginary part exceeds
    MINOR_IMAG_TOL relative to its real part, raises NumericInconsistency;
    the first such point raises what it raises alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(sub)
    finite = np.isfinite(det)
    first = _first(~finite | (abs(det.imag) > MINOR_IMAG_TOL * np.maximum(1.0, abs(det.real))))
    if first is not None:
        if not finite.flat[first]:
            raise NumericInconsistency(f"principal minor is not finite: {det.flat[first]}")
        raise NumericInconsistency(f"principal minor has imaginary part {det.imag.flat[first]}")
    return det.real[()]


def principal_minor(mm, rows):
    """Determinant of the principal submatrix selected by ``rows``."""
    rows = list(rows)
    if sorted(set(rows)) != rows:
        raise ValueError("rows must be strictly increasing")
    return float(_minor(mm.matrix[np.ix_(rows, rows)]))


def s1_minor(mm):
    """Three-row minor reaching fourth-order moments; witnesses |0>|a> + |1>|-a>."""
    return principal_minor(mm, sorted(mm.position(u) for u in S1_INDICES))


def s2_minor(mm):
    """Three-row minor of second-order moments, behind the Duan-type criterion."""
    return principal_minor(mm, sorted(mm.position(u) for u in S2_INDICES))


# ---------------------------------------------------------------------------
# moment providers


def _by_words(fn):
    """fn(*ints, words) cached by the ints and the words' shape and bytes; results read-only."""
    @lru_cache(maxsize=32)
    def cached(*key):
        *ints, shape, data = key
        out = fn(*ints, np.frombuffer(data, dtype=np.int64).reshape(shape))
        for x in out:
            x.flags.writeable = False
        return out
    return lambda *args: cached(*args[:-1], np.shape(args[-1]),
                                np.asarray(args[-1], dtype=np.int64).tobytes())


@_by_words
def _ladder_words(dim, words):
    """(shifts, diagonals, index): hi^p lo^q hi^r lo^s over the distinct rows (p, q, r, s) of words.

    lo, hi are the ladder operators on dim levels and words has shape (..., 4).
    Word k sends |n> to diagonals[k, n] |n + shifts[k]>: lo^s, hi^r, lo^q and
    hi^p act on each level in turn as running products of sqrt factors, and a
    step past the top level gives 0, as the truncated operators do.  index
    gives each row's k over the leading shape.
    """
    distinct, index = np.unique(np.reshape(words, (-1, 4)), axis=0, return_inverse=True)
    root = np.sqrt(np.arange(dim))
    level, diagonals = np.arange(dim), np.ones((len(distinct), dim))
    for column, step in ((3, -1), (2, 1), (1, -1), (0, 1)):
        for j in range(distinct[:, column].max()):
            act, new = (j < distinct[:, column])[:, None], level + step
            # a step between n - 1 and n carries sqrt(n): 0 down from level 0
            factor = np.where(new < dim, root[np.clip(np.maximum(level, new), 0, dim - 1)], 0.0)
            diagonals = np.where(act, diagonals * factor, diagonals)
            level = np.where(act, new, level)
    return distinct @ [1, -1, 1, -1], diagonals, index.reshape(np.shape(words)[:-1])


@_by_words
def _qudit_words(dim, words):
    """Dense (K, dim, dim) view of the words' _ladder_words table, and each row's index into it."""
    shifts, diagonals, index = _ladder_words(dim, words)
    stack = np.array([np.eye(dim, k=-s) * d for s, d in zip(shifts, diagonals)], dtype=complex)
    return stack, index


class MatrixMomentProvider:
    """Moments evaluated by matrix products on a two-subsystem density matrix.

    mode_subsystem selects which tensor factor carries the a operators; the
    other factor uses the d-level ladder operators or, with
    qudit_mode='embedded', those of a Fock space EMBED_PAD levels larger,
    with the qudit padded by zeros into it.  rho is held as a (mode, qudit,
    mode', qudit') tensor; each distinct a-word is one shift and one
    diagonal (_ladder_words), so a call contracts rho along each word's
    shifted diagonal and then traces every entry's qudit operator against
    its b-word.  The word tables of both sides are cached.
    """

    def __init__(self, rho, mode_subsystem=1, qudit_mode="adapted"):
        if len(rho.dims) != 2:
            raise ValueError("moment provider needs a bipartite state")
        self.mode_subsystem = int(mode_subsystem)
        if self.mode_subsystem not in (0, 1):
            raise ValueError("mode_subsystem must be 0 or 1")
        t = rho.matrix.reshape(rho.dims + rho.dims)
        if self.mode_subsystem == 1:
            t = t.transpose(1, 0, 3, 2)
        if qudit_mode not in ("adapted", "embedded"):
            raise ValueError("qudit_mode must be 'adapted' or 'embedded'")
        pad = EMBED_PAD if qudit_mode == "embedded" else 0
        self._rho = np.pad(t, [(0, 0), (0, pad), (0, 0), (0, pad)])

    def __call__(self, a_words, b_words):
        shifts, diagonals, ia = _ladder_words(len(self._rho), a_words)
        wb, ib = _qudit_words(self._rho.shape[1], b_words)
        # reduced[k, q, q'] = sum_m diagonals[k, m] rho[m, q, m + shifts[k], q'] (0 out of range)
        m = np.arange(len(self._rho))
        shifted = self._rho[m, :, np.clip(m + shifts[:, None], 0, len(m) - 1), :]
        reduced = np.einsum("km,kmqp->kqp", diagonals, shifted)
        return np.einsum("...qp,...pq->...", reduced[ia], wb[ib])


class SymbolicMomentProvider:
    """Exact moments of a coherent-family hybrid state or of its thermal-channel output.

    Takes one state: a HybridState or a ThermalHybridState, a stack of one
    template or one point; a ThermalHybridState stack may pass one channel
    per point.  A plain HybridState must hold coherent kets only, and is
    then read as the output of the identity channel (eta = 1, n_th = 0).
    The dyad arrays (weight p c_i conj(c_j), levels and amplitudes of every
    branch pair of every term) come from the state's arrays by index, with
    no loop over points or branches.  Mode words reduce to normal order and
    every normal-ordered pair of every coherent dyad goes through the
    Gaussian closed form thermal_dyad_moments, one broadcast call for all
    words, dyads and points; qudit words are evaluated with the d-level
    adapted operators.  A stack gives each moment for every point on a
    leading point axis, (P, ...); one state is the P = 1 case without that
    axis.  No truncation enters.
    """

    def __init__(self, state):
        if isinstance(state, ThermalHybridState):
            state, params = state.base, state.params
        elif isinstance(state, HybridState):
            require_coherent(state, "the exact moment route")
            params = IDENTITY_CHANNEL
        else:
            raise TypeError("SymbolicMomentProvider needs HybridStates or ThermalHybridStates")
        self._single = state.single
        self.qudit_dim = state.qudit_dim
        levels = np.array(state.columns[0])
        # every branch pair (i, j) of every term t, for |m_i><m_j| x Y(|alpha_i><alpha_j|)
        ends = np.cumsum(state.counts)
        t, i, j = np.array([(t, i, j) for t, (end, count) in enumerate(zip(ends, state.counts))
                            for i in range(end - count, end)
                            for j in range(end - count, end)]).reshape(-1, 3).T
        amps = state.amps[0][:, list(state.columns[1])]
        self._weights = state.p[:, t] * state.c[:, i] * np.conj(state.c[:, j])
        self._alpha, self._beta = amps[:, i], amps[:, j]
        self._m, self._mp = levels[None, i], levels[None, j]  # (1, D), shared by every point
        self._channel = np.stack([np.broadcast_to(x, (state.points,))
                                  for x in (params.eta, params.n_th)])[..., None]  # (2, P, 1)

    def __call__(self, a_words, b_words):
        wb, ib = _qudit_words(self.qudit_dim, b_words)
        # weight * tr[|m><m'| wb] per word, point and dyad
        qudit = wb[:, self._mp, self._m][ib] * self._weights
        weights, k, l, n = _normal_order(a_words)
        # every dyad's moment for every normal-ordered power pair up to the largest
        mode = thermal_dyad_moments(self._alpha, self._beta, self._channel,
                                    (n[:, None, None, None], n[None, :, None, None]))
        out = np.einsum("...t,...tpd,...pd->p...", weights, mode[k, l], qudit)
        return out[0] if self._single else out


@_by_words
def _normal_order(a_words):
    """Pairing weights, normal-ordered powers k, l and power range n of a-words."""
    # each power gets a trailing axis for the reordering index t
    p, q, r, s = np.moveaxis(a_words, -1, 0)[..., None]
    # a^dag^p a^q a^dag^r a^s = sum_t t! C(q,t) C(r,t) a^dag^(p+r-t) a^(q+s-t)
    t = np.arange(np.minimum(q, r).max() + 1)
    k, l = np.maximum(p + r - t, 0), np.maximum(q + s - t, 0)
    weights = np.frompyfunc(lambda q, r, t: math.factorial(t) * math.comb(q, t) * math.comb(r, t),
                            3, 1)(q, r, t).astype(float)  # zero for t > min(q, r)
    return weights, k, l, np.arange(max(k.max(), l.max()) + 1)


# ---------------------------------------------------------------------------
# named closed-form determinants


def cat_witness_determinants(alpha, phi):
    """(s1, s2, selected) for the two-mode cat at amplitude alpha, phase phi; arrays broadcast.

    selected = Theta(cos(phi + pi)) s1 + Theta(cos phi) s2 with the
    half-maximum step convention, and is negative for every phi at alpha != 0:
    s1 covers pi/2 <= phi <= 3 pi/2, s2 the rest, both at the crossover.
    Integer powers are taken by np.float_power, as pow takes them at one
    point, so every element is its scalar call bit for bit (as in all the
    closed forms below).
    """
    a2 = np.float_power(np.abs(alpha), 2.0)
    e4 = np.exp(4.0 * a2)
    denom = np.float_power(e4 + np.cos(phi), 3.0)
    s1 = -(4.0 * np.float_power(a2, 3.0) * e4 / denom) * (1.0 - e4 * np.cos(phi))
    s2 = -(4.0 * np.float_power(a2, 2.0) * e4 / denom) * (1.0 + e4 * np.cos(phi))
    selected = heaviside_half(np.cos(phi + np.pi)) * s1 + heaviside_half(np.cos(phi)) * s2
    return _real(s1), _real(s2), _real(selected)


def squeezed_s1(alpha, r):
    """s1 of the squeezed binary-coherent state; independent of the squeezing phase.

    Positive values mean the witness fails even though squeezing, a local
    unitary, cannot have changed the entanglement.  Arrays broadcast.
    """
    a2 = np.float_power(np.abs(alpha), 2.0)
    e = np.exp(-4.0 * a2)
    sinh2 = np.float_power(np.sinh(r), 2.0)
    return _real(sinh2 / 4.0 - e / 2.0 * a2 * np.float_power(np.cosh(r), 2.0) - e / 8.0 * sinh2)


def mixed24_s1(p, alpha):
    """s1 of the two-term mixture of four coherent kets (+-alpha, +-i alpha); arrays broadcast."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("mixing probability must lie in [0, 1]")
    a2 = np.float_power(alpha, 2.0)
    return _real(a2 / 2.0 * (p * (1.0 - p) - np.exp(-4.0 * a2) * (1.0 - 1.5 * p * (1.0 - p))))


def thermal_s1(alpha, eta, n_th):
    """Closed-form s1 of the binary-coherent state's thermal-channel output; arrays broadcast."""
    a2 = np.float_power(np.abs(alpha), 2.0)
    return _real((1.0 - eta) / 4.0 * n_th * (1.0 - np.exp(-4.0 * a2) / 2.0)
                 - eta * a2 / 2.0 * np.exp(-4.0 * a2))


def thermal_threshold(alpha, eta):
    """Largest n_th at which s1 still witnesses, 4 eta a^2 / ((1-eta)(2 e^{4a^2} - 1)).

    Infinite at eta >= 1.  Arrays broadcast; those points enter the
    arithmetic as alpha = eta = 0, so they raise no floating-point warning.
    """
    below = np.asarray(eta) < 1.0
    a2 = np.float_power(np.where(below, np.abs(alpha), 0.0), 2.0)
    eta = np.where(below, eta, 0.0)
    return _real(np.where(below, 4.0 * eta * a2 / ((1.0 - eta) * (2.0 * np.exp(4.0 * a2) - 1.0)),
                          np.inf))


def optimal_alpha():
    """Amplitude maximizing the witnessable thermal noise; root of (2 - 8 a^2) e^{4 a^2} = 1.

    Independent of the transmissivity, which only scales the threshold.
    """
    f = lambda a2: (2.0 - 8.0 * a2) * np.exp(4.0 * a2) - 1.0
    return float(np.sqrt(_bisect(f, 0.05, 0.25, 1e-14)))


def _bisect(f, lo, hi, xtol):
    """Roots of f between lo and hi (arrays broadcast), where f changes sign, by bisection.

    f is called on every element at once, once for lo and once per step.
    Each element stops as brentq does: once hi - lo <= xtol + 4 eps |mid|,
    or once the midpoint is an endpoint, so it ends on axes whose ulp
    exceeds xtol; a stopped element keeps its bracket.
    """
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        done = ((hi - lo <= xtol + 4.0 * np.finfo(float).eps * np.abs(mid))
                | (mid == lo) | (mid == hi))
        if done.all():
            return mid
        left = done | ((f(mid) < 0.0) != lo_negative)  # the root is left of mid, or stopped
        lo, hi = np.where(left, lo, mid), np.where(left & ~done, mid, hi)


def _sqrtn_sum(y):
    """sum_{n>=1} sqrt(n) y^n by monotone-bounded partial summation; arrays broadcast.

    The tail is bounded by the exactly summable sum_{m>n} m y^m, so the
    reported value is within SERIES_TOL of the limit.  Each element stops
    at its own n, so it is its scalar sum bit for bit.
    """
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y) & (y < 1.0)):
        raise ValueError("series needs 0 <= y < 1")
    total, n, term, active = np.zeros(y.shape), 1, y, np.ones(y.shape, dtype=bool)
    while active.any():
        total = np.where(active, total + np.sqrt(n) * term, total)
        n += 1
        term = term * y
        active &= ~(term * (n * (1.0 - y) + y) / np.float_power(1.0 - y, 2.0) < SERIES_TOL)
    return total


def _geometric_damping(x, alpha):
    """(a^2, y, damp) of the geometric mixture: y = x e^{-2a^2}, damp = e^{-2a^2}(1-x)/(1-y)."""
    if not np.all((0.0 < x) & (x < 1.0)):
        raise ValueError("mixing parameter x must lie in (0, 1)")
    a2 = np.float_power(alpha, 2.0)
    y = x * np.exp(-2.0 * a2)
    return a2, y, np.exp(-2.0 * a2) * (1.0 - x) / (1.0 - y)


def geometric_s1_bound(x, alpha):
    """s1_bound of geometric_mixture_s1 alone, with no series; arrays broadcast."""
    a2, _, damp = _geometric_damping(x, alpha)
    return _real(a2 / 8.0 * (2.0 * x / (1.0 - x) - damp * damp * (3.0 + 1.0 / (1.0 - x))))


def geometric_mixture_s1(x, alpha):
    """(s1_partial, s1_bound) for the geometrically mixed hybrid family; arrays broadcast.

    s1_partial sums the exact series expression for s1, using the closed
    geometric sums for the exactly summable pieces and monotone-bounded
    partial sums for the sqrt(n)-weighted ones.  s1_bound replaces the
    sqrt(n) sums by their geometric lower bounds; since those sums enter the
    expression negatively, s1_bound >= s1, and s1_bound < 0 is therefore a
    sufficient criterion for entanglement of the full, untruncated family.
    """
    a2, y, damp = _geometric_damping(x, alpha)
    pref = alpha * (1.0 - x) / x
    b = pref * _sqrtn_sum(y)
    c = pref * _sqrtn_sum(x)
    s1 = (2.0 * a2 / (1.0 - x) - 2.0 * damp * b * c - b * b - 2.0 * c * c
          - a2 / (1.0 - x) * damp * damp) / 8.0
    return _real(s1), geometric_s1_bound(x, alpha)


# ---------------------------------------------------------------------------
# swap witness and region sweeps


def swap_operator(d):
    """V with V |i>|j> = |j>|i> on two d-level factors."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, -1)


def swap_witness(rho):
    """tr[V rho] with the swap V on a d x d DensityMatrix; nonnegative on every separable state."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError("swap witness needs equal subsystem dimensions")
    return float(np.einsum("ij,ji->", swap_operator(rho.dims[0]), rho.matrix).real)


@dataclass(frozen=True)
class WitnessRegion:
    """Grid verdicts of a parameterized determinant.

    verdict is True only where the determinant is below -1e-12; values inside
    the band |det| <= 1e-12 are inconclusive, never reported as entangled.
    """

    axes: tuple
    values: np.ndarray
    verdict: np.ndarray
    inconclusive: np.ndarray
    boundary: tuple = ()


def witness_region(det_fn, grid, boundary_axis=None):
    """Evaluate a determinant over a parameter grid and mark the witnessed region.

    grid is an ordered mapping name -> 1-d values; det_fn takes the named
    parameters as keywords and must broadcast, as every determinant here
    does: it is called once on the whole grid.  With boundary_axis set, the
    sign changes along that axis are refined by bisecting every cell at
    once (one call per step) and returned as boundary samples.
    """
    names = list(grid.keys())
    axes = [np.asarray(grid[k], dtype=float) for k in names]
    values = np.empty(tuple(len(v) for v in axes))
    values[...] = det_fn(**dict(zip(names, np.meshgrid(*axes, indexing="ij"))))
    verdict = values < -INCONCLUSIVE_BAND
    inconclusive = np.abs(values) <= INCONCLUSIVE_BAND
    boundary = []
    if boundary_axis is not None:
        ax = names.index(boundary_axis)
        moved = np.moveaxis(values, ax, -1)
        *pos, k = np.nonzero(np.sign(moved[..., :-1]) * np.sign(moved[..., 1:]) < 0)
        others = [i for i in range(len(names)) if i != ax]
        fixed = {names[i]: axes[i][p] for i, p in zip(others, pos)}
        if len(k):
            roots = _bisect(lambda t: det_fn(**{**fixed, boundary_axis: t}),
                            axes[ax][k], axes[ax][k + 1], BOUNDARY_XTOL)
            boundary = [dict(zip([*fixed, boundary_axis], cell))
                        for cell in zip(*fixed.values(), roots)]
    return WitnessRegion(tuple((k, axes[i]) for i, k in enumerate(names)),
                         values, verdict, inconclusive, tuple(boundary))
