"""Inverse Gram-Schmidt compression of non-orthogonal ket families.

A finite family of normalized kets with known pairwise overlaps can always be
re-expressed in an orthonormal basis of the subspace it spans by a
lower-triangular coefficient matrix that preserves every overlap.  Hybrid
states supported on finitely many qumode kets thereby become ordinary
finite-dimensional density matrices, where the full DV toolbox applies.
"""

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .channels import ThermalHybridState
from .composite import DensityMatrix
from .kets import MODE, HybridState, InfiniteHybridFamily, gram_matrix

DEPENDENCE_TOL = 1e-12


@dataclass(frozen=True)
class GramCoefficients:
    """Lower-triangular expansion of kets in an orthonormal basis.

    Row i gives |psi_i> = sum_j matrix[i, j] |e_j>.  Overlap preservation
    reads sum_k conj(matrix[i, k]) matrix[j, k] = <psi_i|psi_j>, i.e.
    matrix.conj() @ matrix.T reproduces the Gram matrix.  When kets are
    linearly dependent the basis is smaller than the family and matrix is
    rectangular (n x basis_size).
    """

    matrix: np.ndarray
    pivots: tuple

    @property
    def basis_size(self):
        return self.matrix.shape[1]

    def reconstructed_gram(self):
        return self.matrix.conj() @ self.matrix.T


def inverse_gram_schmidt(gram):
    """Expansion coefficients of kets with the given Gram matrix.

    gram[i, j] = <psi_i|psi_j>, Hermitian with unit diagonal.  Rows are
    processed in order; each new ket either extends the orthonormal basis
    (positive residual) or, when its residual norm^2 falls below
    DEPENDENCE_TOL, is expressed in the basis built so far, reducing the
    effective dimension instead of failing.  A new basis vector fills its
    whole column at once, as in the column form of Cholesky factorization.
    """
    gram = np.asarray(gram, dtype=complex)
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError("gram matrix must be square")
    if np.abs(gram - gram.conj().T).max() > 1e-8:
        raise ValueError("gram matrix must be Hermitian")
    if np.abs(np.diag(gram) - 1.0).max() > 1e-8:
        raise ValueError("gram matrix must have unit diagonal (normalized kets)")

    rows = np.zeros((n, n), dtype=complex)
    pivots = []
    for i in range(n):
        r = len(pivots)
        residual = gram[i, i].real - float(np.sum(np.abs(rows[i, :r]) ** 2))
        if residual > DEPENDENCE_TOL:
            d = np.sqrt(residual)
            rows[i, r] = d
            # <psi_i|psi_j> = sum_k conj(A_ik) A_jk fixes the new column of every later row j
            rows[i + 1:, r] = (gram[i, i + 1:] - rows[i + 1:, :r] @ rows[i, :r].conj()) / d
            pivots.append(i)
    r = len(pivots)
    return GramCoefficients(rows[:, :r], tuple(pivots))


def ket_expansion(kets):
    """GramCoefficients for a list of SymbolicKet built from analytic overlaps."""
    return inverse_gram_schmidt(gram_matrix(kets))


def site_expansions(state):
    """(axis, kets, GramCoefficients) for each mode site of a HybridState.

    A site's kets are its distinct kets in order of first appearance over all
    terms; each site gets one ket_expansion.
    """
    out = []
    for axis, site in enumerate(state.sites):
        if site == MODE:
            kets = list(dict.fromkeys(b.values[axis] for _, bs in state.terms for b in bs))
            out.append((axis, kets, ket_expansion(kets)))
    return out


def _term_vectors(state):
    """Compressed vectors of the terms of a HybridState, one per row, and the effective dims.

    Each mode site becomes its orthonormal basis, and each branch lands by
    index: its qudit levels select one entry per qudit axis, and the outer
    product of the rows of its kets fills the mode axes.  Terms on a layout of
    mode sites only are normalized through the ket overlaps and renormalized here.
    """
    sites = state.sites
    dims, rows = list(sites), {}
    for axis, kets, coeffs in site_expansions(state):
        dims[axis] = coeffs.basis_size
        rows[axis] = dict(zip(kets, coeffs.matrix))
    vectors = np.zeros((state.term_count, prod(dims)), dtype=complex)
    for v, (_, branches) in zip(vectors, state.terms):
        view = v.reshape(dims)
        for c, values in branches:
            index = tuple(slice(None) if s == MODE else x for s, x in zip(sites, values))
            view[index] += c * reduce(np.multiply.outer, [rows[a][values[a]] for a in rows])
    if len(rows) == len(sites):
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors, tuple(dims)


def compress_vector(state):
    """Effective DV ket of a pure HybridState, with its dims.

    The qumode kets of each mode site are replaced by their orthonormal
    expansion; all overlaps, and hence all entanglement properties, are
    preserved exactly.  It is a unit vector whose outer product is compress(state).matrix.
    """
    if not state.is_pure:
        raise ValueError("compress_vector needs a pure (single-term) state")
    vectors, dims = _term_vectors(state)
    return vectors[0], dims


def compress(state):
    """Effective DV density matrix sum_n p_n |v_n><v_n| of a HybridState, one factor per site."""
    vectors, dims = _term_vectors(state)
    return DensityMatrix((vectors.T * state.weights) @ vectors.conj(), dims)


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
