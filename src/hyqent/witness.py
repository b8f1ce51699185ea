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


def heaviside_half(x):
    """Step function with the half-maximum convention Theta(0) = 1/2."""
    if x > 0:
        return 1.0
    if x < 0:
        return 0.0
    return 0.5


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


# rows generating the two workhorse determinants
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
    """
    idx, a_words, b_words = _matrix_words(max_total_degree, qudit_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(provider(a_words, b_words), dtype=complex)
        adjoint = m.conj().T
        if not np.abs(m - adjoint).max() <= MOMENT_HERM_TOL:
            raise InconsistentMoments("moment provider is not Hermitian-consistent")
        if not abs(m[0, 0] - 1.0) <= MOMENT_HERM_TOL:
            raise InconsistentMoments(f"normalization moment is {m[0, 0]}, expected 1")
    return MomentMatrix((m + adjoint) / 2.0, idx)


@lru_cache(maxsize=16)
def _matrix_words(max_total_degree, qudit_dim):
    """Index tuple and read-only (n, n, 4) a- and b-words of sv_moment_matrix."""
    idx = sv_multi_indices(max_total_degree, qudit_dim)
    rows, cols = np.broadcast_arrays(np.array(idx)[:, None], np.array(idx)[None, :])
    a_words = np.concatenate([rows[..., [1, 0]], cols[..., [0, 1]]], axis=-1)
    b_words = np.concatenate([cols[..., [3, 2]], rows[..., [2, 3]]], axis=-1)
    a_words.flags.writeable = b_words.flags.writeable = False
    return tuple(idx), a_words, b_words


def principal_minor(mm, rows):
    """Determinant of the principal submatrix selected by ``rows``."""
    rows = list(rows)
    if sorted(set(rows)) != rows:
        raise ValueError("rows must be strictly increasing")
    sub = mm.matrix[np.ix_(rows, rows)]
    det = np.linalg.det(sub)
    if abs(det.imag) > MINOR_IMAG_TOL * max(1.0, abs(det.real)):
        raise NumericInconsistency(f"principal minor has imaginary part {det.imag}")
    return float(det.real)


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


def _ladder_words(dim, words):
    """Stacked hi^p lo^q hi^r lo^s over the distinct rows (p, q, r, s) of words.

    lo, hi are the ladder operators on dim levels; words has shape (..., 4).
    Returns the stack and, over the leading shape, each row's index into it.
    _qudit_words caches both for qudit dimensions; at a Fock cutoff dim the
    stack would hold megabytes per cutoff, so it is built on every call.
    """
    distinct, index = np.unique(np.reshape(words, (-1, 4)), axis=0, return_inverse=True)
    lo, hi = qudit_mode_operators(dim)
    lo_pow, hi_pow = ([np.linalg.matrix_power(x, n) for n in range(distinct.max() + 1)]
                      for x in (lo, hi))
    stack = np.empty((len(distinct),) + lo.shape, dtype=lo.dtype)
    for i, (p, q, r, s) in enumerate(distinct):
        stack[i] = hi_pow[p] @ lo_pow[q] @ hi_pow[r] @ lo_pow[s]
    return stack, index.reshape(np.shape(words)[:-1])


_qudit_words = _by_words(_ladder_words)


class MatrixMomentProvider:
    """Moments evaluated by matrix products on a two-subsystem density matrix.

    mode_subsystem selects which tensor factor carries the a operators; the
    other factor uses the d-level ladder operators or, with
    qudit_mode='embedded', those of a Fock space EMBED_PAD levels larger,
    with the qudit padded by zeros into it.  rho is held as a (mode, qudit,
    mode', qudit') tensor; a call contracts it once with each distinct
    a-word and then traces every entry's qudit operator against its b-word.
    Qudit word stacks are cached; mode ones, sized by the cutoff, are not.
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
        wa, ia = _ladder_words(self._rho.shape[0], a_words)
        wb, ib = _qudit_words(self._rho.shape[1], b_words)
        # reduced[k, q, q'] = sum_{m, m'} rho[m, q, m', q'] wa_k[m', m]
        reduced = np.tensordot(wa, self._rho, axes=([1, 2], [2, 0]))
        return np.einsum("...qp,...pq->...", reduced[ia], wb[ib])


class SymbolicMomentProvider:
    """Exact moments of a coherent-family hybrid state or its thermal-channel output.

    A plain HybridState must hold coherent kets only, and is then read as the
    output of the identity channel (eta = 1, n_th = 0).  Mode words reduce to
    normal order and every normal-ordered pair of every coherent dyad goes
    through the Gaussian closed form thermal_dyad_moments, one broadcast call
    for all words and dyads; qudit words are evaluated with the d-level
    adapted operators.  No truncation enters.
    """

    def __init__(self, state):
        if isinstance(state, HybridState):
            require_coherent(state, "the exact moment route")
            state = ThermalHybridState(state, ThermalChannelParams(1.0, 0.0))
        elif not isinstance(state, ThermalHybridState):
            raise TypeError("SymbolicMomentProvider needs a HybridState or a ThermalHybridState")
        self.qudit_dim = state.base.qudit_dim
        weights, levels, dyads = zip(*state.dyad_terms())
        self._weights = np.array(weights)
        self._m, self._mp = np.array(levels).T
        self._alpha, self._beta = np.array(dyads, dtype=complex).T
        self._params = state.params

    def __call__(self, a_words, b_words):
        wb, ib = _qudit_words(self.qudit_dim, b_words)
        # weight * tr[|m><m'| wb] per word and dyad
        qudit = wb[:, self._mp, self._m][ib] * self._weights
        weights, k, l, n = _normal_order(a_words)
        # every dyad's moment for every normal-ordered power pair up to the largest
        mode = thermal_dyad_moments(self._alpha, self._beta, self._params,
                                    (n[:, None, None], n[None, :, None]))
        return np.einsum("...t,...td,...d->...", weights, mode[k, l], qudit)


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
    """(s1, s2, selected) for the two-mode cat at amplitude alpha, phase phi.

    selected = Theta(cos(phi + pi)) s1 + Theta(cos phi) s2 with the
    half-maximum step convention, and is negative for every phi at alpha != 0:
    s1 covers pi/2 <= phi <= 3 pi/2, s2 the rest, both at the crossover.
    """
    a2 = abs(alpha) ** 2
    e4 = np.exp(4.0 * a2)
    denom = (e4 + np.cos(phi)) ** 3
    s1 = -(4.0 * a2**3 * e4 / denom) * (1.0 - e4 * np.cos(phi))
    s2 = -(4.0 * a2**2 * e4 / denom) * (1.0 + e4 * np.cos(phi))
    selected = heaviside_half(np.cos(phi + np.pi)) * s1 + heaviside_half(np.cos(phi)) * s2
    return float(s1), float(s2), float(selected)


def squeezed_s1(alpha, r):
    """s1 of the squeezed binary-coherent state; independent of the squeezing phase.

    Positive values mean the witness fails even though squeezing, a local
    unitary, cannot have changed the entanglement.
    """
    a2 = abs(alpha) ** 2
    e = np.exp(-4.0 * a2)
    return float(np.sinh(r) ** 2 / 4.0 - e / 2.0 * a2 * np.cosh(r) ** 2
                 - e / 8.0 * np.sinh(r) ** 2)


def mixed24_s1(p, alpha):
    """s1 of the two-term mixture holding four coherent kets (+-alpha, +-i alpha)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing probability must lie in [0, 1]")
    a2 = float(alpha) ** 2
    return float(a2 / 2.0 * (p * (1.0 - p) - np.exp(-4.0 * a2) * (1.0 - 1.5 * p * (1.0 - p))))


def thermal_s1(alpha, eta, n_th):
    """Closed-form s1 of the thermal-channel output of the binary-coherent state."""
    a2 = abs(alpha) ** 2
    return float((1.0 - eta) / 4.0 * n_th * (1.0 - np.exp(-4.0 * a2) / 2.0)
                 - eta * a2 / 2.0 * np.exp(-4.0 * a2))


def thermal_threshold(alpha, eta):
    """Largest n_th at which s1 still witnesses, 4 eta a^2 / ((1-eta)(2 e^{4a^2} - 1))."""
    if eta >= 1.0:
        return float("inf")
    a2 = abs(alpha) ** 2
    return float(4.0 * eta * a2 / ((1.0 - eta) * (2.0 * np.exp(4.0 * a2) - 1.0)))


def optimal_alpha():
    """Amplitude maximizing the witnessable thermal noise; root of (2 - 8 a^2) e^{4 a^2} = 1.

    Independent of the transmissivity, which only scales the threshold.
    """
    f = lambda a2: (2.0 - 8.0 * a2) * np.exp(4.0 * a2) - 1.0
    return float(np.sqrt(_bisect(f, 0.05, 0.25, 1e-14)))


def _bisect(f, lo, hi, xtol):
    """Root of f between lo and hi, where f changes sign, by bisection.

    Stops as brentq does: once hi - lo <= xtol + 4 eps |mid|, or once the
    midpoint is an endpoint, so it ends on axes whose ulp exceeds xtol.
    """
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + 4.0 * np.finfo(float).eps * abs(mid) or mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if (f(mid) < 0.0) == lo_negative else (lo, mid)


def _sqrtn_sum(y):
    """sum_{n>=1} sqrt(n) y^n by monotone-bounded partial summation.

    The tail is bounded by the exactly summable sum_{m>n} m y^m, so the
    reported value is within SERIES_TOL of the limit.
    """
    if not 0.0 <= y < 1.0:
        raise ValueError("series needs 0 <= y < 1")
    total, n, term = 0.0, 1, y
    while True:
        total += np.sqrt(n) * term
        n += 1
        term *= y
        if term * (n * (1.0 - y) + y) / (1.0 - y) ** 2 < SERIES_TOL:
            return total


def geometric_mixture_s1(x, alpha):
    """(s1_partial, s1_bound) for the geometrically mixed hybrid family.

    s1_partial sums the exact series expression for s1, using the closed
    geometric sums for the exactly summable pieces and monotone-bounded
    partial sums for the sqrt(n)-weighted ones.  s1_bound replaces the
    sqrt(n) sums by their geometric lower bounds; since those sums enter the
    expression negatively, s1_bound >= s1, and s1_bound < 0 is therefore a
    sufficient criterion for entanglement of the full, untruncated family.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("mixing parameter x must lie in (0, 1)")
    a2 = float(alpha) ** 2
    y = x * np.exp(-2.0 * a2)
    damp = np.exp(-2.0 * a2) * (1.0 - x) / (1.0 - y)
    pref = alpha * (1.0 - x) / x
    b = pref * _sqrtn_sum(y)
    c = pref * _sqrtn_sum(x)
    s1 = (2.0 * a2 / (1.0 - x) - 2.0 * damp * b * c - b * b - 2.0 * c * c
          - a2 / (1.0 - x) * damp * damp) / 8.0
    bound = a2 / 8.0 * (2.0 * x / (1.0 - x)
                        - damp * damp * (3.0 + 1.0 / (1.0 - x)))
    return float(s1), float(bound)


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
    parameters as keywords.  With boundary_axis set, sign changes along that
    axis are refined by bisection and returned as boundary samples.
    """
    names = list(grid.keys())
    axes = [np.asarray(grid[k], dtype=float) for k in names]
    shape = tuple(len(v) for v in axes)
    values = np.empty(shape)
    for pos in np.ndindex(*shape):
        point = {k: axes[i][pos[i]] for i, k in enumerate(names)}
        values[pos] = det_fn(**point)
    verdict = values < -INCONCLUSIVE_BAND
    inconclusive = np.abs(values) <= INCONCLUSIVE_BAND
    boundary = []
    if boundary_axis is not None:
        ax = names.index(boundary_axis)
        moved = np.moveaxis(values, ax, -1)
        for pos in np.ndindex(*moved.shape[:-1]):
            line = moved[pos]
            for k in range(len(line) - 1):
                if np.sign(line[k]) * np.sign(line[k + 1]) < 0:
                    lo, hi = axes[ax][k], axes[ax][k + 1]
                    fixed = {names[i]: axes[i][pos[i if i < ax else i - 1]]
                             for i in range(len(names)) if i != ax}
                    f = lambda t: det_fn(**{**fixed, boundary_axis: t})
                    root = _bisect(f, lo, hi, BOUNDARY_XTOL)
                    boundary.append({**fixed, boundary_axis: root})
    return WitnessRegion(tuple((k, axes[i]) for i, k in enumerate(names)),
                         values, verdict, inconclusive, tuple(boundary))
