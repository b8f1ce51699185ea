"""Symbolic qumode kets with analytic overlaps, and the hybrid state container.

Closed-form overlaps are the backbone of the compression machinery: wherever a
pair of kets has an exact overlap, no Fock truncation enters the effective
finite-dimensional description.
"""

from dataclasses import dataclass
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from . import fock
from .composite import DensityMatrix
from .errors import UnsupportedKet

COHERENT = "coherent"
FOCK = "fock"
DISPLACED_SQUEEZED = "displaced_squeezed"
PHOTON_ADDED = "photon_added_coherent"

MODE = "mode"  # site holding a qumode ket; any other site is a qudit dimension


@dataclass(frozen=True)
class SymbolicKet:
    """Exact descriptor of a normalized single-mode ket.

    kinds:
      coherent(alpha)                      |alpha>
      fock(n)                              |n>
      displaced_squeezed(alpha, r, theta)  D(alpha) S(r e^{i theta}) |0>
      photon_added_coherent(k, alpha)      a^dag^k |alpha> / norm
    """

    kind: str
    alpha: complex = 0.0
    n: int = 0
    k: int = 0
    r: float = 0.0
    theta: float = 0.0

    @classmethod
    def coherent(cls, alpha):
        return cls(COHERENT, alpha=complex(alpha))

    @classmethod
    def vacuum(cls):
        return cls(COHERENT, alpha=0.0)

    @classmethod
    def fock(cls, n):
        if n < 0:
            raise ValueError("Fock index must be >= 0")
        return cls(FOCK, n=int(n))

    @classmethod
    def displaced_squeezed(cls, alpha, r, theta=0.0):
        return cls(DISPLACED_SQUEEZED, alpha=complex(alpha), r=float(r), theta=float(theta))

    @classmethod
    def squeezed_coherent(cls, alpha, r, theta=0.0):
        """S(xi) D(alpha) |0> rewritten as a displaced squeezed vacuum.

        S D(alpha) S^dag = D(alpha cosh r - conj(alpha) e^{i theta} sinh r).
        """
        beta = complex(alpha) * np.cosh(r) - np.conj(complex(alpha)) * np.exp(1j * theta) * np.sinh(r)
        return cls(DISPLACED_SQUEEZED, alpha=beta, r=float(r), theta=float(theta))

    @classmethod
    def photon_added(cls, k, alpha):
        if k < 0:
            raise ValueError("photon-addition order must be >= 0")
        return cls(PHOTON_ADDED, alpha=complex(alpha), k=int(k))

    def to_fock(self, n_cut, tail_tol=1e-8):
        """Numerical truncated-Fock realization of the ket."""
        if self.kind == COHERENT:
            return fock.coherent_ket(self.alpha, n_cut, tail_tol=tail_tol)
        if self.kind == FOCK:
            if self.n > n_cut:
                raise ValueError(f"Fock index {self.n} above cutoff {n_cut}")
            v = np.zeros(n_cut + 1, dtype=complex)
            v[self.n] = 1.0
            return v
        if self.kind == DISPLACED_SQUEEZED:
            s = fock.squeeze(self.theta, self.r, n_cut, tail_tol=tail_tol)
            d = fock.displace(self.alpha, n_cut, tail_tol=tail_tol)
            return (d @ s)[:, 0]
        if self.kind == PHOTON_ADDED:
            _, adag, _ = fock.mode_operators(n_cut)
            v = fock.coherent_ket(self.alpha, n_cut, tail_tol=tail_tol)
            for _ in range(self.k):
                v = adag @ v
            return v / np.linalg.norm(v)
        raise UnsupportedKet(f"unknown ket kind {self.kind}")


def _pac_norm_sq(k, alpha):
    # <alpha| a^k a^dag^k |alpha> = k! L_k(-|alpha|^2)
    x = abs(alpha) ** 2
    return sum(factorial(j) * comb(k, j) ** 2 * x ** (k - j) for j in range(k + 1))


def _pac_cross(k, alpha, l, beta):
    # <alpha| a^k a^dag^l |beta>, reordered into normal order
    tot = 0.0 + 0.0j
    for j in range(min(k, l) + 1):
        tot += (factorial(j) * comb(k, j) * comb(l, j)
                * np.conj(alpha) ** (l - j) * beta ** (k - j))
    return tot * fock.overlap_coherent(beta, alpha)


def overlap(bra, ket):
    """Analytic overlap <bra|ket> for supported kind pairs.

    Pairs without a closed form implemented here raise UnsupportedKet rather
    than silently falling back to truncation.
    """
    a, b = bra, ket
    if a.kind == COHERENT and b.kind == COHERENT:
        return fock.overlap_coherent(b.alpha, a.alpha)
    if a.kind == FOCK and b.kind == FOCK:
        return 1.0 + 0.0j if a.n == b.n else 0.0 + 0.0j
    if a.kind == FOCK and b.kind == COHERENT:
        al = b.alpha
        return np.exp(-abs(al) ** 2 / 2) * al ** a.n / np.sqrt(factorial(a.n))
    if a.kind == COHERENT and b.kind == FOCK:
        return np.conj(overlap(b, a))
    if a.kind == DISPLACED_SQUEEZED and b.kind == DISPLACED_SQUEEZED:
        if not (np.isclose(a.r, b.r) and np.isclose(a.theta, b.theta)):
            raise UnsupportedKet("displaced-squeezed overlaps need equal squeezing")
        # D(alpha) S = S D(beta) with beta = alpha cosh r + conj(alpha) e^{i th} sinh r,
        # and the squeezers cancel inside the overlap.
        ba = a.alpha * np.cosh(a.r) + np.conj(a.alpha) * np.exp(1j * a.theta) * np.sinh(a.r)
        bb = b.alpha * np.cosh(b.r) + np.conj(b.alpha) * np.exp(1j * b.theta) * np.sinh(b.r)
        return fock.overlap_coherent(bb, ba)
    if a.kind == PHOTON_ADDED and b.kind == PHOTON_ADDED:
        num = _pac_cross(a.k, a.alpha, b.k, b.alpha)
        return num / np.sqrt(_pac_norm_sq(a.k, a.alpha) * _pac_norm_sq(b.k, b.alpha))
    if a.kind == PHOTON_ADDED and b.kind == COHERENT:
        return _pac_cross(a.k, a.alpha, 0, b.alpha) / np.sqrt(_pac_norm_sq(a.k, a.alpha))
    if a.kind == COHERENT and b.kind == PHOTON_ADDED:
        return np.conj(overlap(b, a))
    raise UnsupportedKet(f"no analytic overlap for pair ({a.kind}, {b.kind})")


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
    values = tuple(v if s == MODE else int(v) for s, v in zip(sites, values))
    if len(values) != len(sites) or not all(
            isinstance(v, SymbolicKet) if s == MODE else 0 <= v < s for s, v in zip(sites, values)):
        raise ValueError(f"branch values {values} do not fit sites {sites}: one SymbolicKet "
                         f"per mode site and one in-range level per qudit site")
    return values


class HybridState:
    """Convex mixture of pure terms on an ordered tuple of sites.

    rho = sum_n p_n |psi_n><psi_n| with |psi_n> = sum_b c_nb |values_nb>.  Each
    site is a qudit dimension (int) or MODE; each branch holds one level per
    qudit site and one SymbolicKet per mode site.  HybridState(d, terms) with
    (c, m, ket) branches is shorthand for the qudit-qumode layout (d, MODE);
    HybridState(sites, terms) takes (c, values) branches.

    Branches of one term must differ in some qudit level.  They are then
    orthogonal, so sum_b |c_nb|^2 = 1 normalizes each term exactly.  A layout
    of mode sites only has no levels to tell branches apart: its terms are
    normalized through the ket overlaps, go unchecked here, and compression
    renormalizes them.
    """

    def __init__(self, sites, terms):
        if not isinstance(sites, (tuple, list)):
            sites = (sites, MODE)
            terms = [(p, [(c, (m, ket)) for c, m, ket in branches]) for p, branches in terms]
        sites = tuple(s if s == MODE else int(s) for s in sites)
        qudit_axes = [a for a, s in enumerate(sites) if s != MODE]
        norm_terms = []
        total_p = 0.0
        for p, branches in terms:
            p = float(p)
            if p <= 0:
                raise ValueError("term probabilities must be positive")
            bs = tuple(Branch(complex(c), _site_values(sites, values)) for c, values in branches)
            if qudit_axes:
                levels = [tuple(b.values[a] for a in qudit_axes) for b in bs]
                if len(set(levels)) != len(levels):
                    raise ValueError("duplicate qudit level within one term")
                csum = sum(abs(b.c) ** 2 for b in bs)
                if abs(csum - 1.0) > 1e-12:
                    raise ValueError(f"branch coefficients have norm^2 {csum}, expected 1")
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
        def braket(v1, v2):
            return np.prod([overlap(a, b) if s == MODE else float(a == b)
                            for s, a, b in zip(self.sites, v1, v2)])
        return sum(p * (np.conj(c1) * c2 * braket(v1, v2)).real
                   for p, branches in self.terms for c1, v1 in branches for c2, v2 in branches)

    def to_fock_density(self, n_cut, tail_tol=1e-8):
        """Truncated-Fock qudit x mode density matrix (cross-check path)."""
        d = self.qudit_dim
        dim = d * (n_cut + 1)
        rho = np.zeros((dim, dim), dtype=complex)
        for p, branches in self.terms:
            v = np.zeros(dim, dtype=complex)
            for b in branches:
                e = np.zeros(d, dtype=complex)
                e[b.m] = 1.0
                v += b.c * np.kron(e, b.ket.to_fock(n_cut, tail_tol=tail_tol))
            rho += p * np.outer(v, v.conj())
        return DensityMatrix(rho, (d, n_cut + 1), trace_tol=1e-6)

    def __repr__(self):
        return f"HybridState(sites={self.sites}, terms={self.term_count})"


@dataclass(frozen=True)
class InfiniteHybridFamily:
    """Lazily generated mixture with infinitely many terms.

    term(n) returns (p_n, branches) for n = 1, 2, ...; the family as a whole
    carries the truly-hybrid marker because no finite truncation represents it.
    """

    qudit_dim: int
    term: object
    label: str = ""

    def truncate(self, n_terms):
        """Renormalized truncation plus the neglected weight.

        The truncated state is a different, effectively DV state; callers must
        treat it as a cross-check, never as the family itself.
        """
        terms = [self.term(n) for n in range(1, n_terms + 1)]
        kept = sum(p for p, _ in terms)
        state = HybridState(self.qudit_dim, [(p / kept, bs) for p, bs in terms])
        return state, 1.0 - kept
