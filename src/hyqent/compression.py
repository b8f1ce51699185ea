"""Inverse Gram-Schmidt compression of non-orthogonal ket families.

A finite family of normalized kets with known pairwise overlaps can always be
re-expressed in an orthonormal basis of the subspace it spans by a
lower-triangular coefficient matrix that preserves every overlap.  Hybrid
states supported on finitely many qumode kets thereby become ordinary
finite-dimensional density matrices, where the full DV toolbox applies.

States that differ only in their amplitudes, coefficients and weights
compress together: a HybridState stack holds them on one template, stacks()
splits it by Gram pivots, and compress and compress_vector take such a Stack
and return one result per state on a leading point axis.  One state is the
one-point case of the same computation.
"""

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .channels import ThermalHybridState
from .composite import DensityMatrix
from .kets import (MODE, HybridState, InfiniteHybridFamily, SymbolicKet, _family, _read_only_cache,
                   gram_matrix)

DEPENDENCE_TOL = 1e-12


@dataclass(frozen=True)
class GramCoefficients:
    """Lower-triangular expansion of kets in an orthonormal basis.

    Row i gives |psi_i> = sum_j matrix[i, j] |e_j>.  Overlap preservation
    reads sum_k conj(matrix[i, k]) matrix[j, k] = <psi_i|psi_j>, i.e.
    matrix.conj() @ matrix.T reproduces the Gram matrix.  When kets are
    linearly dependent the basis is smaller than the family and matrix is
    rectangular (n x basis_size).  Families with the same pivots stack on a
    leading point axis.
    """

    matrix: np.ndarray
    pivots: tuple

    @property
    def basis_size(self):
        return self.matrix.shape[-1]

    def reconstructed_gram(self):
        return self.matrix.conj() @ self.matrix.swapaxes(-1, -2)


def _factor(gram):
    """Column-Cholesky rows of a (P, n, n) Gram stack, one column per ket, and the pivot mask.

    Rows are processed in order; each new ket either extends the orthonormal
    basis (positive residual) or, when its residual norm^2 falls below
    DEPENDENCE_TOL, is expressed in the basis built so far and keeps an
    all-zero column.  A new basis vector fills its whole column at once.
    """
    if not np.isfinite(gram).all():
        raise ValueError("gram matrix is not finite")
    n = gram.shape[-1]
    rows = np.zeros(gram.shape, dtype=complex)
    columns = rows.transpose(2, 0, 1)  # columns[i] is column i of every point's rows
    norms = gram.diagonal(axis1=1, axis2=2).real
    for i in range(n):
        row = rows[:, i, :i]
        residual = norms[:, i:i + 1] - np.add.reduce(np.square(np.abs(row)), axis=-1, keepdims=True)
        keep = residual > DEPENDENCE_TOL
        # a dependent ket divides by d = inf, which leaves its column 0 (a ket
        # dependent at every point skips the division); its diagonal entry,
        # which no later step reads, marks it until the end
        d = np.sqrt(np.where(keep, residual, np.inf))
        columns[i, :, i:i + 1] = d
        if i + 1 < n and keep.any():
            # <psi_i|psi_j> = sum_k conj(A_ik) A_jk fixes the new column of every later row j
            later = (rows[:, i + 1:, :i] @ row.conj()[..., None])[..., 0]
            columns[i, :, i + 1:] = (gram[:, i, i + 1:] - later) / d
    diagonal = np.arange(n)
    d = rows[:, diagonal, diagonal]
    pivot = d.real < np.inf
    rows[:, diagonal, diagonal] = np.where(pivot, d, 0.0)
    return rows, pivot


def _coefficients(rows, keep):
    """GramCoefficients of factor rows with the pivot mask keep shared by all points."""
    if keep.all():
        return GramCoefficients(rows, tuple(range(keep.size)))
    return GramCoefficients(rows[..., keep], tuple(np.flatnonzero(keep).tolist()))


def inverse_gram_schmidt(gram):
    """Expansion coefficients of kets with the given Gram matrix.

    gram[i, j] = <psi_i|psi_j>, Hermitian with unit diagonal.  Rows are
    processed in order; each new ket either extends the orthonormal basis
    (positive residual) or, when its residual norm^2 falls below
    DEPENDENCE_TOL, is expressed in the basis built so far, reducing the
    effective dimension instead of failing.  A new basis vector fills its
    whole column at once, as in the column form of Cholesky factorization.
    stacks() factors many Gram matrices of one template at once.
    """
    gram = np.asarray(gram, dtype=complex)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError("gram matrix must be square")
    if not np.abs(gram - gram.conj().T).max(initial=0.0) <= 1e-8:
        raise ValueError("gram matrix must be Hermitian")
    if not np.abs(np.diag(gram) - 1.0).max(initial=0.0) <= 1e-8:
        raise ValueError("gram matrix must have unit diagonal (normalized kets)")
    rows, pivot = _factor(gram[None])
    return _coefficients(rows[0], pivot[0])


def ket_expansion(kets):
    """GramCoefficients for a list of SymbolicKet built from analytic overlaps."""
    return inverse_gram_schmidt(gram_matrix(kets))


def site_expansions(state):
    """(axis, kets, GramCoefficients) for each mode site of one HybridState.

    A site's kets are its distinct kets in order of first appearance over all
    terms (its slots); each site gets one ket_expansion.
    """
    modes = [a for a, site in enumerate(state.sites) if site == MODE]
    out = []
    for axis, forms, amps in zip(modes, state.forms, state.amps):
        kets = [SymbolicKet(k, complex(alpha), r, theta)
                for (k, r, theta), alpha in zip(forms, amps[0])]
        out.append((axis, kets, ket_expansion(kets)))
    return out


class Stack(NamedTuple):
    """A HybridState stack that compresses as one, with each mode site's expansion.

    Its states share a template and the pivots of every mode site, so each
    (axis, GramCoefficients) of expansions has a leading point axis.
    """

    state: HybridState
    expansions: tuple

    @property
    def is_pure(self):
        return self.state.is_pure


def stacks(state):
    """Split one HybridState (a stack of one template, or one state) into Stacks by pivots.

    Two points share a Stack when they share the pivots of each mode site's
    Gram factorization, which is built from the stored amplitudes and
    factorized once.  Returns (indices, Stack) pairs, with the indices (an
    array) into the points, increasing.
    """
    modes = [a for a, site in enumerate(state.sites) if site == MODE]
    factors = [(axis, *_factor(gram_matrix(_family(forms, amps))))
               for axis, forms, amps in zip(modes, state.forms, state.amps)]
    parts = [slice(None)]
    if state.points > 1 and factors:
        pivots = np.concatenate([pivot for _, _, pivot in factors], axis=1)
        if (pivots != pivots[:1]).any():
            _, pattern = np.unique(pivots, axis=0, return_inverse=True)
            parts = [np.flatnonzero(pattern.ravel() == g) for g in range(pattern.max() + 1)]
    return [(np.arange(state.points)[sel],
             Stack(state if isinstance(sel, slice) else state.take(sel),
                   tuple((axis, _coefficients(rows[sel], pivot[sel][0]))
                         for axis, rows, pivot in factors)))
            for sel in parts]


def _as_stack(state):
    """The Stack of a state, and whether it is one state (whose results have no point axis).

    A HybridState stack whose points differ in Gram pivots raises ValueError.
    """
    if isinstance(state, Stack):
        return state, False
    groups = stacks(state)
    if len(groups) > 1:
        raise ValueError("the states differ in Gram pivots; compress each of compression.stacks")
    return groups[0][1], state.single


def _outer(factors):
    """Outer product over two leading axes: (P, B, r_1), ..., (P, B, r_k) to (P, B, r_1, ...)."""
    return reduce(lambda x, y: x[..., None] * y.reshape(y.shape[:2] + (1,) * (x.ndim - 2) + (-1,)),
                  factors)


@_read_only_cache
def _placement(sites, counts, columns):
    """Where _term_vectors puts a template's branches: each mode site's slot column, per rank
    among the branches of one term and levels the branches and their (term, levels) targets,
    the work array's term and qudit axes, and the transpose that puts its axes in site order."""
    modes = [a for a, site in enumerate(sites) if site == MODE]
    qudits = [a for a, site in enumerate(sites) if site != MODE]
    terms = [t for t, count in enumerate(counts) for _ in range(count)]
    rank, seen = [], {}
    for target in zip(terms, *[columns[a] for a in qudits]):
        rank.append(seen.get(target, 0))
        seen[target] = rank[-1] + 1
    rank = np.array(rank)
    target = [np.array(terms)] + [np.array(columns[a]) for a in qudits]
    adds = tuple((sel, tuple(t[sel] for t in target))
                 for sel in (np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1)))
    return (tuple(np.array(columns[a], dtype=int) for a in modes), adds,
            (len(counts),) + tuple(sites[a] for a in qudits),
            (0, 1) + tuple(2 + (qudits + modes).index(a) for a in range(len(sites))))


def _term_vectors(stack):
    """Compressed vectors of the terms of a Stack, (P, terms, D), and the effective dims.

    Each mode site becomes its orthonormal basis, and each branch lands by
    index (_placement): its qudit levels select one entry per qudit axis, and its
    coefficient times the outer product of the rows of its kets fills the mode
    axes.  Branches that land on one block add up in branch order.  Terms on a
    layout of mode sites only are normalized through the ket overlaps and
    renormalized here.
    """
    slots, adds, axes, order = _placement(*stack.state.template[:3])
    c = stack.state.c
    blocks = _outer([coeffs.matrix[:, column]
                     for column, (_, coeffs) in zip(slots, stack.expansions)])
    blocks = c.reshape(c.shape + (1,) * len(slots)) * blocks
    # work holds the term and qudit axes before the mode axes
    work = np.zeros((len(c),) + axes + blocks.shape[2:], dtype=complex)
    for sel, target in adds:
        work[(slice(None),) + target] += blocks[:, sel]
    vectors = work.transpose(order).reshape(len(c), axes[0], -1)
    if len(axes) == 1:  # no qudit site
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors, tuple(work.shape[i] for i in order[2:])


def compress_vector(state):
    """Effective DV ket of a pure HybridState, with its dims.

    The qumode kets of each mode site are replaced by their orthonormal
    expansion; all overlaps, and hence all entanglement properties, are
    preserved exactly.  It is a unit vector whose outer product is compress(state).matrix.
    A Stack of pure states (or a HybridState stack with one set of pivots) gives
    one ket per state, (P, D).
    """
    if not state.is_pure:
        raise ValueError("compress_vector needs a pure (single-term) state")
    stack, one = _as_stack(state)
    vectors, dims = _term_vectors(stack)
    return (vectors[0, 0] if one else vectors[:, 0]), dims


def compress(state):
    """Effective DV density matrix sum_n p_n |v_n><v_n| of a HybridState, one factor per site.

    A Stack (or a HybridState stack with one set of pivots) gives a
    DensityMatrix stack, one matrix per state on a leading axis.
    """
    stack, one = _as_stack(state)
    vectors, dims = _term_vectors(stack)
    matrix = (vectors.swapaxes(1, 2) * stack.state.p[:, None, :]) @ vectors.conj()
    return DensityMatrix(matrix[0] if one else matrix, dims)


@dataclass(frozen=True)
class Classification:
    """Three-way split: effectively DV (pure or mixed) vs truly hybrid."""

    kind: str  # 'pure-dv-like' | 'mixed-dv-like' | 'truly-hybrid'
    term_count: int = 0

    PURE = "pure-dv-like"
    MIXED = "mixed-dv-like"
    TRULY_HYBRID = "truly-hybrid"


def classify(state):
    """Classify a hybrid state by the number of terms in its decomposition.

    A single pure term admits a Schmidt decomposition after compression; a
    finite mixture is still effectively DV; the two infinite-family
    descriptors (thermal-channel outputs, lazily generated mixtures) are
    truly hybrid by construction provenance, since no finite computation
    distinguishes very many kets from infinitely many.
    """
    if isinstance(state, (InfiniteHybridFamily, ThermalHybridState)):
        return Classification(Classification.TRULY_HYBRID)
    if isinstance(state, HybridState):
        if state.is_pure:
            return Classification(Classification.PURE, 1)
        return Classification(Classification.MIXED, state.term_count)
    raise TypeError(f"cannot classify {type(state).__name__}")
