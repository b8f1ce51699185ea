"""Symbolic qumode kets with analytic overlaps, and the hybrid state container.

Closed-form overlaps are the backbone of the compression machinery: wherever a
pair of kets has an exact overlap, no Fock truncation enters the effective
finite-dimensional description.
"""

import math
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
        for j in range(self.k):  # v becomes a^dag^(j+1) |alpha> / sqrt((j+1)!), squeezed
            raised = down / root[j] * root[:v.size - 1] * v[1:]
            raised[1:] += up / root[j] * root[:v.size - 2] * v[:-2]
            v = raised
        if self.k:
            lost = 1.0 - np.vdot(v, v).real / ladder_sum(self.k, self.k, np.conj(self.alpha),
                                                           self.alpha, normalized=True).real
            if not lost <= tail_tol:
                raise CutoffTooSmall(f"{self!r} loses weight {lost:.3e} > {tail_tol:.1e} above "
                                     f"cutoff {n_cut}",
                                     suggested=fock.default_cutoff(abs(self.alpha) + self.k**0.5))
        return (v.view(float) / np.linalg.norm(v)).view(complex)  # true division, part by part


MAX_ORDER = 166  # the one cap on ladder orders: it bounds the recurrence, and 166! is a double
_INV_SQRT_FACTORIAL = np.array([math.factorial(n) ** -0.5 for n in range(MAX_ORDER + 1)])


@lru_cache(maxsize=16)
def _ladder_plan(shape, dtype, lo_bytes, d_bytes, z_shape, normalized):
    """What ladder_sum takes from lo = min(k, l) and d = k - l alone; cached and shared.

    Orders held apart from z (as for dyad moments) recur one row per a = |d|
    for each z, other orders one row per element; `at` reads each at its lo.
    """
    lo, d = (np.frombuffer(b, dtype=dtype).reshape(shape) for b in (lo_bytes, d_bytes))
    a, full = np.abs(d), np.broadcast_shapes(shape, z_shape)
    if lo.size * math.prod(z_shape) == math.prod(full):
        rows, at = np.arange(a.max(initial=0) + 1)[:, None], (lo, a)
    else:
        rows, at, z_shape = np.broadcast_to(a, full).ravel(), (lo,), full
    weight = _INV_SQRT_FACTORIAL[a]  # times sqrt(k! l!) unless normalized
    if not normalized:
        weight = weight / (_INV_SQRT_FACTORIAL[lo] * _INV_SQRT_FACTORIAL[lo + a])
    return (fock.laguerre_rows(int(lo.max(initial=0)), rows),
            at + (np.arange(math.prod(z_shape)).reshape(z_shape),), d >= 0, a, weight)


def ladder_sum(k, l, x, y, c=1.0, normalized=False):
    """sum_t t! C(k,t) C(l,t) c^t x^(l-t) y^(k-t), broadcast over orders and amplitudes.

    The one normal-ordered sum of the ladder closed forms.  At c = 1 with
    x = conj(alpha), y = beta it is <alpha|a^k a^dag^l|beta> / <alpha|beta>,
    the photon-added overlap (Agarwal & Tara, PRA 43, 492 (1991)); at
    c = (1-eta) n_th with x = sqrt(eta) alpha, y = sqrt(eta) conj(beta) it is
    a thermal-channel dyad moment over the overlap (thermal_dyad_moments).
    c may be an array that broadcasts to the shape of x * y, so one call can
    hold one channel per point.
    For k >= l it is l! c^l y^(k-l) L_l^(k-l)(-xy/c) (k < l swaps (k, y) for
    (l, x)), evaluated as sqrt(k! l! / a!) w^a p with lo, a = min(k, l),
    |k - l|, w = y where k >= l, else x, and p the normalized
    fock.laguerre_step polynomial at z = xy read at lo.  normalized leaves out
    sqrt(k! l!), so no factorial is ever formed.
    """
    k, l, x, y = np.asarray(k), np.asarray(l), np.asarray(x), np.asarray(y)
    lo, d, z = np.minimum(k, l), k - l, x * y
    # plans of at most 1024 orders (32-ket families, every dyad-moment grid) are cached;
    # larger ones are rebuilt, which keeps the cache small
    plan = _ladder_plan if lo.size <= 1024 else _ladder_plan.__wrapped__
    rows, at, ge, a, weight = plan(lo.shape, lo.dtype.str, lo.tobytes(), d.tobytes(), z.shape,
                                   normalized)
    z = (z if z.shape == at[-1].shape else np.broadcast_to(z, at[-1].shape)).ravel()
    per_point = np.ndim(c) > 0
    if per_point:  # one c per element of z
        c = np.broadcast_to(c, at[-1].shape).ravel()
    rise, fall, norm = (rows if not per_point and c == 1
                        else (rows[0] * c, rows[1] * (c * c), rows[2]))
    # p[m] over the recursion's rows and z values, for m = 0 .. the largest lo
    p = np.ones((len(norm) + 1,) + np.broadcast(norm[:1], z).shape[1:], dtype=complex)
    for m in range(len(norm)):  # at m = 0, fall is 0 and p[-1] a finite placeholder
        p[m + 1] = fock.laguerre_step(p[m], p[m - 1], z, rise[m], fall[m], norm[m])
    return np.where(ge, y, x) ** a * weight * p[at]


def _ladder_forms(kets):
    """Ladder orders k and amplitudes alpha of the kets S(xi) a^dag^k |alpha> of one family.

    The squeezers cancel in every overlap of kets at equal squeezing, so such
    a family enters by its ladder kets alone.  Unequal squeezing, and ladder
    orders above MAX_ORDER, raise UnsupportedKet.  A sequence of P families
    (each an iterable of kets) with the same ladder orders and squeezing slot
    by slot gives the orders once and a (P, n) amplitude array.
    """
    stacked = bool(kets) and not isinstance(kets[0], SymbolicKet)
    families = kets if stacked else [kets]
    forms = [(ket.k, ket.r, ket.theta) for ket in families[0]]
    if len({form[1:] for form in forms}) > 1:
        raise UnsupportedKet("squeezed kets have closed-form overlaps only at equal squeezing")
    if any([(ket.k, ket.r, ket.theta) for ket in family] != forms for family in families[1:]):
        raise ValueError("stacked ket families must share their ladder orders and squeezing")
    orders = np.array([form[0] for form in forms], dtype=int)
    if orders.max(initial=0) > MAX_ORDER:
        raise UnsupportedKet(f"ladder orders above {MAX_ORDER} have no closed form here")
    if stacked:
        return orders, np.array([[ket.alpha for ket in family] for family in kets], dtype=complex)
    return orders, np.array([ket.alpha for ket in kets], dtype=complex)


def _family_overlaps(kets):
    """<kets[i]|kets[j]> for every pair of one family, by the ladder closed form.

    <alpha| a^k a^dag^l |beta> = <alpha|beta> ladder_sum(k, l, conj(alpha), beta)
    for bra order k and ket order l, so the overlap of normalized kets is
    <alpha|beta> times the normalized sum over the square roots of both kets'
    own, whose product is never formed.  A value beyond the double range
    raises UnsupportedKet.  A sequence of families (see _ladder_forms) gives a
    (P, n, n) stack, each matrix as its family alone would.
    """
    orders, amps = _ladder_forms(kets)
    bra, ket = amps[..., :, None], amps[..., None, :]
    value = fock.overlap_coherent(ket, bra)
    if orders.any():  # at order 0 the factor and the norms are 1
        with np.errstate(over="ignore", invalid="ignore"):
            factor = ladder_sum(orders[:, None], orders, np.conj(bra), ket, normalized=True)
            norm = factor.diagonal(axis1=-2, axis2=-1).real
            value *= factor / norm[..., :, None] * np.sqrt(norm[..., :, None] / norm[..., None, :])
        if not np.isfinite(value).all():
            raise UnsupportedKet("a ladder overlap of this family lies beyond the double range")
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
    """Gram matrix <kets[i]|kets[j]>, exactly Hermitian with a unit diagonal.

    A sequence of families with the same ladder orders and squeezing slot by
    slot gives a (P, n, n) stack.
    """
    upper = np.triu(_family_overlaps(kets), 1)
    gram = upper + upper.conj().swapaxes(-1, -2)
    diagonal = np.arange(gram.shape[-1])
    gram[..., diagonal, diagonal] = 1.0
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
            if not p > 0:
                raise ValueError("term probabilities must be positive")
            bs = tuple(Branch(complex(c), _site_values(sites, values)) for c, values in branches)
            norm = term_norm(sites, bs) if set(sites) != {MODE} else 1.0
            if not abs(norm - 1.0) <= 1e-12:
                raise ValueError(f"term has norm^2 {norm} from its ket overlaps, expected 1")
            norm_terms.append(Term(p, bs))
            total_p += p
        if not abs(total_p - 1.0) <= 1e-12:
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
