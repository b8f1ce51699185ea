"""Symbolic qumode kets with analytic overlaps, and the hybrid state container.

Closed-form overlaps are the backbone of the compression machinery: wherever a
pair of kets has an exact overlap, no Fock truncation enters the effective
finite-dimensional description.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fock
from .composite import DensityMatrix
from .errors import CutoffTooSmall, UnsupportedKet

COHERENT = "coherent"
FOCK = "fock"
DISPLACED_SQUEEZED = "displaced_squeezed"
PHOTON_ADDED = "photon_added_coherent"

MODE = "mode"  # site holding a qumode ket; any other site is a qudit dimension


@dataclass(frozen=True)
class SymbolicKet:
    """Exact descriptor of the normalized single-mode ket S(r e^{i theta}) a^dag^k |alpha> / norm.

    Every constructor lands in this one form, so one state has one descriptor
    (theta is 0 whenever r is), and kind is read from the fields: a squeezed
    ket for r != 0, else coherent for k = 0, Fock for alpha = 0, else photon-added.
    """

    k: int = 0
    alpha: complex = 0j
    r: float = 0.0
    theta: float = 0.0

    @property
    def kind(self):
        if self.r:
            return DISPLACED_SQUEEZED
        if not self.k:
            return COHERENT
        return PHOTON_ADDED if self.alpha else FOCK

    @classmethod
    def coherent(cls, alpha):
        return cls(0, complex(alpha))

    @classmethod
    def vacuum(cls):
        return cls()

    @classmethod
    def fock(cls, n):
        return cls.photon_added(n, 0)

    @classmethod
    def photon_added(cls, k, alpha):
        if k < 0 or k != int(k):
            raise ValueError(f"ladder order k must be an integer >= 0, got {k!r}")
        return cls(int(k), complex(alpha))

    @classmethod
    def squeezed_coherent(cls, alpha, r, theta=0.0):
        """S(r e^{i theta}) |alpha>, with alpha the amplitude inside the squeezer."""
        r = float(r)
        return cls(0, complex(alpha), r, float(theta) if r else 0.0)

    @classmethod
    def displaced_squeezed(cls, alpha, r, theta=0.0):
        """D(alpha) S(xi) |0> = S(xi) |beta>; at r = 0 it is the coherent ket |alpha>."""
        return cls.squeezed_coherent(fock._through_squeezer(complex(alpha), r, theta), r, theta)

    def to_fock(self, n_cut, tail_tol=1e-8):
        """Truncated-Fock realization on levels 0..n_cut, as a unit vector.

        The exact amplitudes of S(xi)|alpha> on n_cut + k + 1 levels, raised k times by
        S a^dag S^dag = cosh r a^dag + e^{-i theta} sinh r a, each step losing the top
        level.  Raises CutoffTooSmall unless n_cut holds |alpha> and, for r != 0, |<a>>
        and S(xi)|0>, and for k > 0 unless the exact weight lost beyond n_cut is at most
        tail_tol.
        """
        fock.require_cutoff(self.alpha, n_cut, tail_tol, self.r, self.theta)
        v = fock.squeezed_amplitudes(self.alpha, self.r, self.theta, n_cut + self.k + 1)
        root = np.sqrt(np.arange(1, v.size))
        up, down = np.cosh(self.r), np.exp(-1j * self.theta) * np.sinh(self.r)
        for _ in range(self.k):
            raised = down * root[:v.size - 1] * v[1:]
            raised[1:] += up * root[:v.size - 2] * v[:-2]
            v = raised
        if self.k:
            lost = 1.0 - np.vdot(v, v).real / ladder_sum(self.k, self.k, np.conj(self.alpha),
                                                           self.alpha).real
            if not lost <= tail_tol:
                raise CutoffTooSmall(f"{self!r} loses weight {lost:.3e} > {tail_tol:.1e} above "
                                     f"cutoff {n_cut}",
                                     suggested=fock.default_cutoff(abs(self.alpha) + self.k**0.5))
        return (v.view(float) / np.linalg.norm(v)).view(complex)  # true division, part by part


@lru_cache(maxsize=8)
def _falling_factorials(n_max):
    """Read-only table F[n, j] = j! C(n, j) = n (n-1) ... (n-j+1) for n, j <= n_max."""
    n = np.arange(n_max + 1.0)
    table = np.cumprod(np.column_stack([np.ones_like(n), n[:, None] - n[:-1]]), axis=1)
    table.flags.writeable = False
    return table


def pairing_weights(k, l, j):
    """j! C(k, j) C(l, j) over broadcast integer arrays, zero for j > min(k, l).

    The coefficient of every reordering sum of ladder operators, read exactly
    from one table of falling factorials as F[k, j] (F[l, j] / F[j, j]); the
    quotient is C(l, j), so nothing overflows before the weight itself.
    """
    table = _falling_factorials(int(max(np.max(k), np.max(l), np.max(j))))
    return table[k, j] * (table[l, j] / table[j, j])


def ladder_sum(k, l, x, y, c=1.0):
    """sum_t t! C(k,t) C(l,t) c^t x^(l-t) y^(k-t), broadcast over orders and amplitudes.

    The one normal-ordered sum of the ladder closed forms.  At c = 1 with
    x = conj(alpha), y = beta it is <alpha|a^k a^dag^l|beta> / <alpha|beta>,
    the photon-added overlap (Agarwal & Tara, PRA 43, 492 (1991)); at
    c = (1-eta) n_th with x = sqrt(eta) alpha, y = sqrt(eta) conj(beta) it is
    a thermal-channel dyad moment over the overlap (thermal_dyad_moments).
    """
    k, l = (np.asarray(n)[..., None] for n in (k, l))
    t = np.arange(np.minimum(k, l).max() + 1)
    # exponents below zero only occur where the weight vanishes
    return (pairing_weights(k, l, t) * c**t * np.asarray(y)[..., None] ** np.maximum(k - t, 0)
            * np.asarray(x)[..., None] ** np.maximum(l - t, 0)).sum(axis=-1)


MAX_ORDER = 166  # the largest order whose pairing weights stay below the double range


def _ladder_forms(kets):
    """Ladder order k and amplitude alpha of each ket S(xi) a^dag^k |alpha> of one family.

    The squeezers cancel in every overlap of kets at equal squeezing, so such
    a family enters by its ladder kets alone.  Unequal squeezing, and ladder
    orders above MAX_ORDER, raise UnsupportedKet.
    """
    squeezing = list({(ket.r, ket.theta) for ket in kets})  # one pair for most families
    if len(squeezing) > 1 and not np.isclose(np.array(squeezing)[:, None], squeezing).all():
        raise UnsupportedKet("squeezed kets have closed-form overlaps only at equal squeezing")
    orders = [ket.k for ket in kets]
    if max(orders, default=0) > MAX_ORDER:
        raise UnsupportedKet(f"ladder orders above {MAX_ORDER} overflow the closed form")
    return np.array(orders, dtype=int), np.array([ket.alpha for ket in kets], dtype=complex)


def _family_overlaps(kets):
    """<kets[i]|kets[j]> for every pair of one family, by the ladder closed form.

    <alpha| a^k a^dag^l |beta> = <alpha|beta> ladder_sum(k, l, conj(alpha), beta)
    for bra order k and ket order l; at l = k and beta = alpha the sum is the
    squared norm of a^dag^k |alpha>.
    """
    orders, amps = _ladder_forms(kets)
    value = fock.overlap_coherent(amps, amps[:, None])
    if orders.any():  # at order 0 the sum and the norms are 1
        ladder = ladder_sum(orders[:, None], orders, np.conj(amps)[:, None], amps)
        norm_sq = ladder.diagonal().real
        # exactly 1 on the diagonal, and no overflow for large Fock indices
        value *= ladder / norm_sq[:, None] * np.sqrt(norm_sq[:, None] / norm_sq)
    return value


def overlaps(bras, kets):
    """Matrix of analytic overlaps <bras[i]|kets[j]>, by one normal-ordered closed form.

    bras + kets is read as one family: unless all its kets share one squeezing
    and every ladder order is at most MAX_ORDER, UnsupportedKet is raised
    rather than silently falling back to truncation.
    """
    bras = list(bras)
    return _family_overlaps(bras + list(kets))[:len(bras), len(bras):]


def overlap(bra, ket):
    """Analytic overlap <bra|ket>: the 1 x 1 case of overlaps."""
    return overlaps([bra], [ket])[0, 0]


def gram_matrix(kets):
    """Gram matrix <kets[i]|kets[j]>, exactly Hermitian with a unit diagonal."""
    upper = np.triu(_family_overlaps(kets), 1)
    gram = upper + upper.conj().T
    np.fill_diagonal(gram, 1.0)
    return gram


class Branch(NamedTuple):
    """One component of a pure term: a coefficient and one value per site.

    values holds an int level for each qudit site and a SymbolicKet for each
    mode site.  On the (d, MODE) layout, m and ket name the two values.
    """

    c: complex
    values: tuple

    @property
    def m(self):
        return self.values[0]

    @property
    def ket(self):
        return self.values[1]


class Term(NamedTuple):
    """Probability p of the pure superposition held by branches."""

    p: float
    branches: tuple


def _site_values(sites, values):
    values = tuple(values)  # a level is in range(s) only if integral: 1.0 is, 1.7 is not
    if len(values) != len(sites) or not all(isinstance(v, SymbolicKet) if s == MODE
                                            else v in range(s) for s, v in zip(sites, values)):
        raise ValueError(f"branch values {values} do not fit sites {sites}: one SymbolicKet "
                         f"per mode site and one in-range level per qudit site")
    return tuple(v if s == MODE else int(v) for s, v in zip(sites, values))


def term_norm(sites, branches):
    """<psi|psi> of the pure term |psi> = sum_b c_b |values_b> on sites.

    sum_b |c_b|^2, plus c_b* c_b' times the pair's per-site Gram entries for
    each pair b != b' that agrees on every qudit level; on a layout of mode
    sites only every pair counts.  A term whose branches all differ in a qudit
    level touches no overlap.
    """
    c = np.array([c for c, _ in branches])
    norm = sum((abs(c) ** 2).tolist())  # in branch order, where ndarray.sum would pair terms up
    levels = [tuple(v for s, v in zip(sites, values) if s != MODE) for _, values in branches]
    if len(set(levels)) == len(levels):
        return norm
    group = [levels.index(level) for level in levels]
    same = np.equal.outer(group, group) & ~np.eye(len(group), dtype=bool)
    keep = same.any(axis=0)
    braket = same[np.ix_(keep, keep)].astype(complex)
    for a in [a for a, s in enumerate(sites) if s == MODE]:
        kets = [values[a] for (_, values), k in zip(branches, keep) if k]
        slot = {ket: i for i, ket in enumerate(dict.fromkeys(kets))}
        index = np.array([slot[ket] for ket in kets])
        braket *= gram_matrix(list(slot))[index[:, None], index]
    return float(norm + (np.conj(c[keep]) @ braket @ c[keep]).real)


class HybridState:
    """Convex mixture of pure terms on an ordered tuple of sites.

    rho = sum_n p_n |psi_n><psi_n| with |psi_n> = sum_b c_nb |values_nb>.  Each
    site is a qudit dimension (int) or MODE; each branch holds one level per
    qudit site and one SymbolicKet per mode site.  HybridState(d, terms) with
    (c, m, ket) branches is shorthand for the qudit-qumode layout (d, MODE);
    HybridState(sites, terms) takes (c, values) branches.

    On a layout with a qudit site, each term must have <psi_n|psi_n> = 1
    within 1e-12, as term_norm reads it from the ket overlaps, so branches of
    one term may share qudit levels.  Terms on a layout of mode sites only go
    unchecked here, and compress and compress_vector renormalize them.
    """

    def __init__(self, sites, terms):
        if not isinstance(sites, (tuple, list)):
            sites = (sites, MODE)
            terms = [(p, [(c, (m, ket)) for c, m, ket in branches]) for p, branches in terms]
        if any(s != MODE and s != int(s) for s in sites):
            raise ValueError(f"qudit dimensions must be integers, got sites {sites}")
        sites = tuple(s if s == MODE else int(s) for s in sites)
        norm_terms = []
        total_p = 0.0
        for p, branches in terms:
            p = float(p)
            if p <= 0:
                raise ValueError("term probabilities must be positive")
            bs = tuple(Branch(complex(c), _site_values(sites, values)) for c, values in branches)
            norm = term_norm(sites, bs) if set(sites) != {MODE} else 1.0
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"term has norm^2 {norm} from its ket overlaps, expected 1")
            norm_terms.append(Term(p, bs))
            total_p += p
        if abs(total_p - 1.0) > 1e-12:
            raise ValueError(f"term probabilities sum to {total_p}, expected 1")
        self.sites = sites
        self.terms = tuple(norm_terms)

    @classmethod
    def pure(cls, sites, branches):
        return cls(sites, [(1.0, branches)])

    @property
    def qudit_dim(self):
        """d of the qudit-qumode layout (d, MODE); other layouts raise TypeError.

        This is the one layout check: every function that reads branches as
        (c, m, ket) takes qudit_dim first.
        """
        if len(self.sites) != 2 or self.sites[0] == MODE or self.sites[1] != MODE:
            raise TypeError(f"needs a qudit-qumode state on sites (d, 'mode'), got {self.sites}")
        return self.sites[0]

    @property
    def term_count(self):
        return len(self.terms)

    @property
    def is_pure(self):
        return len(self.terms) == 1

    @property
    def weights(self):
        """The term probabilities p_n."""
        return tuple(t.p for t in self.terms)

    @property
    def pures(self):
        """The terms read as pure components, each with its branches."""
        return self.terms

    def kets(self):
        """Distinct qumode kets, over all mode sites, in order of first appearance."""
        mode_axes = [a for a, s in enumerate(self.sites) if s == MODE]
        return list(dict.fromkeys(b.values[a] for _, branches in self.terms
                                  for b in branches for a in mode_axes))

    def norm_squared(self):
        """sum_n p_n <psi_n|psi_n> from the analytic overlaps; 1 when normalized."""
        return sum(p * term_norm(self.sites, branches) for p, branches in self.terms)

    def to_fock_density(self, n_cut, tail_tol=1e-8):
        """Truncated-Fock qudit x mode density matrix (cross-check path)."""
        d = self.qudit_dim
        rho = 0
        for p, branches in self.terms:
            v = sum(b.c * np.kron(np.eye(d)[b.m], b.ket.to_fock(n_cut, tail_tol=tail_tol))
                    for b in branches)
            rho = rho + p * np.outer(v, v.conj())
        return DensityMatrix(rho, (d, n_cut + 1), trace_tol=1e-6)

    def __repr__(self):
        return f"HybridState(sites={self.sites}, terms={self.term_count})"


@dataclass(frozen=True)
class InfiniteHybridFamily:
    """Lazily generated mixture with infinitely many terms.

    term(n) returns (p_n, branches) for n = 1, 2, ...; classify takes the
    family as a whole as truly hybrid because no finite truncation represents it.
    """

    qudit_dim: int
    term: object

    def truncate(self, n_terms):
        """Renormalized truncation plus the neglected weight.

        The truncated state is a different, effectively DV state; callers must
        treat it as a cross-check, never as the family itself.
        """
        terms = [self.term(n) for n in range(1, n_terms + 1)]
        kept = sum(p for p, _ in terms)
        state = HybridState(self.qudit_dim, [(p / kept, bs) for p, bs in terms])
        return state, 1.0 - kept
