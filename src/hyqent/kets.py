"""Symbolic qumode kets with analytic overlaps, and the hybrid state container.

Closed-form overlaps are the backbone of the compression machinery: wherever a
pair of kets has an exact overlap, no Fock truncation enters the effective
finite-dimensional description.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
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


def _read_only_cache(fn):
    """lru_cache(maxsize=32) of what a call derives from a template alone; arrays read-only."""
    def frozen(x):  # x with every array in it (tuples nest) made read-only
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
        return tuple(map(frozen, x)) if isinstance(x, tuple) else x
    return lru_cache(maxsize=32)(wraps(fn)(lambda *key: frozen(fn(*key))))


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
    # plans of at most 1024 orders (a family's norms and ladder pairs up to that count, every
    # dyad-moment grid) are cached; larger ones are rebuilt, which keeps the cache small
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


class Family(NamedTuple):
    """One closed-form family as arrays: ladder orders (n,), dtype int, and amplitudes (..., n)."""

    orders: np.ndarray
    amps: np.ndarray


def _family(forms, amps):
    """Family of the kets with (k, r, theta) forms and amplitudes amps (..., n).

    The squeezers cancel in every overlap of kets at equal squeezing, so such
    a family enters by its ladder kets alone.  Unequal squeezing, and ladder
    orders above MAX_ORDER, raise UnsupportedKet.
    """
    if len({form[1:] for form in forms}) > 1:
        raise UnsupportedKet("squeezed kets have closed-form overlaps only at equal squeezing")
    orders = [form[0] for form in forms]
    if max(orders, default=0) > MAX_ORDER:
        raise UnsupportedKet(f"ladder orders above {MAX_ORDER} have no closed form here")
    return Family(np.array(orders, dtype=int), amps)


def _ladder_forms(kets):
    """Family of the kets S(xi) a^dag^k |alpha> (see _family); a Family passes as it is."""
    if isinstance(kets, Family):
        return kets
    return _family([(ket.k, ket.r, ket.theta) for ket in kets],
                   np.array([ket.alpha for ket in kets], dtype=complex))


@_read_only_cache
def _pairs(orders):
    """Pairs of a family with ladder orders orders (bytes): rows i < columns j, those with a
    ladder ket first, their places i n + j and j n + i in a flat n x n matrix, and the bra and
    ket indices and orders of its ladder_sum (each ket alone, then those pairs), if it has one."""
    orders = np.frombuffer(orders, dtype=int)
    n = len(orders)
    i, j = np.triu_indices(n, 1)
    held = (orders[i] > 0) | (orders[j] > 0)
    i, j = np.concatenate([i[held], i[~held]]), np.concatenate([j[held], j[~held]])
    own, count = np.arange(n if orders.any() else 0), int(held.sum())
    bra, ket = np.concatenate([own, i[:count]]), np.concatenate([own, j[:count]])
    return i, j, i * n + j, j * n + i, bra, ket, orders[bra], orders[ket]


def _family_overlaps(kets):
    """<kets[i]|kets[j]> for the pairs i < j of one family, in the order of _pairs.

    <alpha| a^k a^dag^l |beta> = <alpha|beta> ladder_sum(k, l, conj(alpha), beta) for bra
    order k and ket order l, so the overlap of normalized kets is <alpha|beta> times the
    normalized sum over the square roots of both kets' own.  One ladder_sum call holds each
    ket's own sum and each pair with a ladder ket; other pairs have factor 1.  A value or
    norm beyond the double range raises UnsupportedKet.  (P, n) amplitudes give (P, pairs).
    """
    orders, amps = _ladder_forms(kets)
    i, j, _, _, bra, ket, k, l = _pairs(orders.tobytes())
    value = fock.overlap_coherent(amps.take(j, axis=-1), amps.take(i, axis=-1))
    if bra.size:
        n, x, y = len(orders), np.conj(amps.take(bra, axis=-1)), amps.take(ket, axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            factor = ladder_sum(k, l, x, y, normalized=True)
            norm = factor[..., :n].real
            row, column = norm.take(bra[n:], axis=-1), norm.take(ket[n:], axis=-1)
            held = value[..., :row.shape[-1]]  # not *=: numpy rounds a one-element *= otherwise
            held[...] = held * (factor[..., n:] / row * np.sqrt(row / column))
        if not (np.isfinite(value).all() and np.isfinite(norm).all()):
            raise UnsupportedKet("a ladder overlap of this family lies beyond the double range")
    return value


def overlaps(bras, kets):
    """Matrix of analytic overlaps <bras[i]|kets[j]>, the upper-right block of gram_matrix(bras
    + kets): unless all those kets share one squeezing and every ladder order is at most
    MAX_ORDER, UnsupportedKet is raised rather than silently falling back to truncation."""
    bras = list(bras)
    return gram_matrix(bras + list(kets))[:len(bras), len(bras):]


def overlap(bra, ket):
    """Analytic overlap <bra|ket>: the 1 x 1 case of overlaps."""
    return overlaps([bra], [ket])[0, 0]


def gram_matrix(kets):
    """Gram matrix <kets[i]|kets[j]>, exactly Hermitian with a unit diagonal: each pair
    i < j is evaluated once.  A Family with (P, n) amplitudes gives a (P, n, n) stack."""
    family = _ladder_forms(kets)
    value, n = _family_overlaps(family), len(family.orders)
    gram = np.empty(value.shape[:-1] + (n * n,), dtype=complex)
    upper, lower = _pairs(family.orders.tobytes())[2:4]
    gram[..., upper], gram[..., lower], gram[..., ::n + 1] = value, value.conj(), 1.0
    return gram.reshape(value.shape[:-1] + (n, n))


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


def _template(sites, terms):
    """Template and one-point arrays of terms [(p, [(c, values), ...]), ...] on sites.

    Returns counts, columns, forms (see HybridState) and the (1, ...) arrays p,
    c and amps; a mode site's slots are its distinct kets in order of first
    appearance.
    """
    values = [v for _, branches in terms for _, v in branches]
    columns, forms, amps = [], [], []
    for a, site in enumerate(sites):
        column = [v[a] for v in values]
        if site == MODE:
            slot = {}
            column = [slot.setdefault(ket, len(slot)) for ket in column]
            forms.append(tuple((ket.k, ket.r, ket.theta) for ket in slot))
            amps.append(np.array([[ket.alpha for ket in slot]], dtype=complex))
        columns.append(tuple(column))
    return (tuple(len(branches) for _, branches in terms), tuple(columns), tuple(forms),
            np.array([[p for p, _ in terms]], dtype=float),
            np.array([[c for _, branches in terms for c, _ in branches]], dtype=complex).reshape(
                1, len(values)), tuple(amps))


@_read_only_cache
def _level_pairs(sites, columns):
    """None if no two branches of a term (on its own columns) agree on every qudit level; else
    the mask of those that do, their pair matrix, and per mode site their slots and index."""
    qudits = [column for column, s in zip(columns, sites) if s != MODE]
    levels = [tuple(column[b] for column in qudits) for b in range(len(columns[0]))]
    if len(set(levels)) == len(levels):
        return None
    group = [levels.index(level) for level in levels]
    same = np.equal.outer(group, group) & ~np.eye(len(group), dtype=bool)
    keep = same.any(axis=0)
    ids = [[i for i, k in zip(column, keep) if k] for column, s in zip(columns, sites) if s == MODE]
    slots = [list(dict.fromkeys(site)) for site in ids]
    return keep, same[np.ix_(keep, keep)].astype(complex), tuple(
        (np.array(d), np.array([d.index(i) for i in site])) for d, site in zip(slots, ids))


def _term_norms(sites, columns, forms, c, amps, sel):
    """term_norm of one term at each point, (P,): sel lists its branches (a range of columns),
    c (P, len(sel)) their coefficients, and _level_pairs the pairs that meet a Gram entry."""
    norm = sum(np.abs(c.T) ** 2, np.zeros(len(c)))  # in branch order, as a loop would add
    pairs = _level_pairs(sites, tuple(column[sel.start:sel.stop] for column in columns))
    if pairs is None:
        return norm
    keep, braket, slots = pairs
    for site_forms, site_amps, (distinct, index) in zip(forms, amps, slots):
        gram = gram_matrix(_family([site_forms[i] for i in distinct], site_amps[:, distinct]))
        braket = braket * gram[:, index[:, None], index]
    ck = c[:, keep]
    return norm + (np.conj(ck)[:, None, :] @ braket @ ck[:, :, None])[:, 0, 0].real


def term_norm(sites, branches):
    """<psi|psi> of the pure term |psi> = sum_b c_b |values_b> on sites.

    sum_b |c_b|^2, plus c_b* c_b' times the pair's per-site Gram entries for
    each pair b != b' that agrees on every qudit level; on a layout of mode
    sites only every pair counts.  A term whose branches all differ in a qudit
    level touches no overlap.  It is the one-point case of the norms that
    HybridState checks on its arrays.
    """
    _, columns, forms, _, c, amps = _template(sites, [(1.0, branches)])
    return float(_term_norms(sites, columns, forms, c, amps, range(c.shape[1]))[0])


def _check(sites, counts, columns, forms, p, c, amps):
    """Raise ValueError unless every point is a normalized mixture, term by term.

    Each term's probability must be positive and, on a layout with a qudit
    site, its norm^2 from the ket overlaps 1 within 1e-12; the probabilities
    must sum to 1 within 1e-12.  A failing term raises before any later one
    is read, naming the first failing point's value.
    """
    total, start = np.zeros(len(p)), 0
    for t, count in enumerate(counts):
        if not (p[:, t] > 0).all():
            raise ValueError("term probabilities must be positive")
        sel = range(start, start + count)
        if set(sites) != {MODE}:
            norm = _term_norms(sites, columns, forms, c[:, sel.start:sel.stop], amps, sel)
            bad = ~(abs(norm - 1.0) <= 1e-12)
            if bad.any():
                raise ValueError(f"term has norm^2 {norm[bad][0]} from its ket overlaps, "
                                 f"expected 1")
        total, start = total + p[:, t], start + count
    bad = ~(abs(total - 1.0) <= 1e-12)
    if bad.any():
        raise ValueError(f"term probabilities sum to {total[bad][0]}, expected 1")


@_read_only_cache
def _site_masks(sites, columns, forms):
    """Per mode site: its slot column, and which pairs of its branches share a slot or a form."""
    slots = [np.array(column, dtype=int) for column, s in zip(columns, sites) if s == MODE]
    first = [np.array([f.index(f[i]) for i in slot], dtype=int) for slot, f in zip(slots, forms)]
    return tuple((s, s[:, None] == s, f[:, None] == f) for s, f in zip(slots, first))


@_read_only_cache
def _regroup(sites, counts, columns, forms, row):
    """What a HybridState.stack signature row (its bytes) keeps: the terms, the branches, per
    mode site the branches whose kets become the slots, and (counts, columns, forms)."""
    row, n, i = np.frombuffer(row, dtype=int), sum(counts), 0
    term_of = np.repeat(np.arange(len(counts)), counts)
    kept = np.flatnonzero(row[:n])
    terms = np.array(sorted(set(term_of[kept].tolist())), dtype=int)  # np.unique loads numpy.ma
    new_columns, new_forms, slots = [], [], []
    for a, site in enumerate(sites):
        if site != MODE:
            new_columns.append(tuple(columns[a][b] for b in kept))
            continue
        first = row[n * (i + 1):n * (i + 2)][kept].tolist()
        distinct = list(dict.fromkeys(first))
        new_columns.append(tuple(distinct.index(f) for f in first))
        new_forms.append(tuple(forms[i][columns[a][b]] for b in distinct))
        slots.append(np.array(distinct, dtype=int))
        i += 1
    new_counts = tuple(int((term_of[kept] == t).sum()) for t in terms)
    return terms, kept, tuple(slots), (new_counts, tuple(new_columns), tuple(new_forms))


class HybridState:
    """Convex mixture of pure terms on an ordered tuple of sites; one state or a stack.

    rho = sum_n p_n |psi_n><psi_n| with |psi_n> = sum_b c_nb |values_nb>.  Each
    site is a qudit dimension (int) or MODE; each branch holds one level per
    qudit site and one SymbolicKet per mode site.  HybridState(d, terms) with
    (c, m, ket) branches is shorthand for the qudit-qumode layout (d, MODE);
    HybridState(sites, terms) takes (c, values) branches.

    A state holds its template once: the sites, the branch count of each term
    (counts), one column per site over all branches in order (the qudit
    level, or on a mode site the slot of the branch's ket among that site's
    distinct kets, in order of first appearance) and the (k, r, theta) form of
    every slot (forms, one tuple per mode site).  Its values are arrays with
    a leading point axis: term probabilities p (P, terms), branch
    coefficients c (P, branches) and, per mode site, slot amplitudes in amps
    (P, slots).  HybridState(sites, terms) is one state (single, P = 1);
    HybridState.stack builds P states from parameter arrays.

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
        terms = tuple(Term(float(p), tuple(Branch(complex(c), _site_values(sites, values))
                                           for c, values in branches))
                      for p, branches in terms)
        template = _template(sites, terms)
        _check(sites, *template)
        self._set(sites, *template, single=True)
        self._terms = terms

    def _set(self, sites, counts, columns, forms, p, c, amps, single):
        self.sites, self.counts, self.columns, self.forms = sites, counts, columns, forms
        self.p, self.c, self.amps = p, c, amps
        self.single = single
        self._terms = None

    @classmethod
    def _of(cls, sites, counts, columns, forms, p, c, amps, single=False):
        state = cls.__new__(cls)
        state._set(sites, counts, columns, forms, p, c, amps, single)
        return state

    @classmethod
    def stack(cls, sites, counts, columns, forms, p, c, amps, keep=None, single=False):
        """(index, HybridState) for each template among P states given on one template.

        counts, columns and forms are a template (see HybridState) and p, c
        and amps its (P, ...) arrays.  Each point keeps the template it has
        alone: keep, a (P, branches) mask, drops branches (a term with no
        branch left goes), and on each mode site the kets that coincide with
        an earlier kept ket share its slot.  Points of one resulting template
        form one stack, checked as HybridState checks one state; single marks
        the stack of a one-point call as one state.
        """
        keep = np.ones(c.shape, dtype=bool) if keep is None else keep
        signature, values = [keep], []
        for (column, same_slot, same_form), alphas in zip(_site_masks(sites, columns, forms), amps):
            v = alphas[:, column]
            # each kept branch's first kept branch with an equal ket (the same slot, or an
            # equal amplitude and form); -1 if dropped
            equal = (same_slot | (v[:, :, None] == v[:, None, :]) & same_form) & keep[:, None, :]
            signature.append(np.where(keep, equal.argmax(axis=2), -1))
            values.append(v)
        signature = np.concatenate(signature, axis=1).astype(int)
        if (signature == signature[:1]).all():
            groups = [(np.arange(len(signature)), signature[0])]
        else:
            rows, which = np.unique(signature, axis=0, return_inverse=True)
            groups = [(np.flatnonzero(which.ravel() == g), row) for g, row in enumerate(rows)]
        out = []
        for index, row in groups:
            terms, kept, distinct, template = _regroup(sites, counts, columns, forms, row.tobytes())
            args = (sites, *template, p[index][:, terms], c[index][:, kept],
                    tuple(v[index][:, d] for v, d in zip(values, distinct)))
            _check(*args)
            out.append((index, cls._of(*args, single=single)))
        return out

    def take(self, sel):
        """The stack of the points sel (an index array or a boolean mask)."""
        return self._of(self.sites, self.counts, self.columns, self.forms, self.p[sel],
                        self.c[sel], tuple(a[sel] for a in self.amps))

    @classmethod
    def join(cls, states):
        """One stack of the points of states that share a template, in order."""
        first = states[0]
        return cls._of(first.sites, first.counts, first.columns, first.forms,
                       np.concatenate([s.p for s in states]), np.concatenate([s.c for s in states]),
                       tuple(np.concatenate(a) for a in zip(*[s.amps for s in states])))

    @classmethod
    def pure(cls, sites, branches):
        return cls(sites, [(1.0, branches)])

    @property
    def template(self):
        """The sites, counts, columns and forms: all the state holds but its arrays."""
        return self.sites, self.counts, self.columns, self.forms

    @property
    def points(self):
        return len(self.p)

    @property
    def terms(self):
        """The terms of one state as (p, branches) Terms of (c, values) Branches."""
        if self._terms is None:
            if self.points != 1:
                raise TypeError(f"a stack of {self.points} states has no single terms")
            modes = [a for a, s in enumerate(self.sites) if s == MODE]
            kets = {a: [SymbolicKet(k, complex(alpha), r, theta)
                        for (k, r, theta), alpha in zip(site_forms, site_amps[0])]
                    for a, site_forms, site_amps in zip(modes, self.forms, self.amps)}
            branches = [Branch(complex(c), tuple(kets[a][x] if a in kets else x
                                                 for a, x in enumerate(values)))
                        for c, values in zip(self.c[0], zip(*self.columns))]
            ends = np.cumsum(self.counts).tolist()
            self._terms = tuple(Term(float(p), tuple(branches[end - count:end]))
                                for p, count, end in zip(self.p[0], self.counts, ends))
        return self._terms

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
        return len(self.counts)

    @property
    def is_pure(self):
        return len(self.counts) == 1

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
        points = "" if self.single else f", points={self.points}"
        return f"HybridState(sites={self.sites}, terms={self.term_count}{points})"


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
