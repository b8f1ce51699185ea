"""Symbolic qumode kets with analytic overlaps, and hybrid qudit-qumode states.

Closed-form overlaps are the backbone of the compression machinery: wherever a
pair of kets has an exact overlap, no Fock truncation enters the effective
finite-dimensional description.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from . import fock
from .composite import DensityMatrix
from .errors import UnsupportedKet

COHERENT = "coherent"
FOCK = "fock"
DISPLACED_SQUEEZED = "displaced_squeezed"
PHOTON_ADDED = "photon_added_coherent"


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


@dataclass(frozen=True)
class Branch:
    """One (coefficient, qudit level, qumode ket) component of a pure term."""

    c: complex
    m: int
    ket: SymbolicKet


class HybridState:
    """Convex mixture of pure qudit-qumode superpositions.

    rho = sum_n p_n |psi_n><psi_n| with |psi_n> = sum_m c_nm |m> |ket_nm>,
    one branch per qudit level at most.  Because the qudit levels are
    orthogonal, sum_m |c_nm|^2 = 1 normalizes each term exactly regardless of
    the qumode overlaps.
    """

    def __init__(self, qudit_dim, terms):
        d = int(qudit_dim)
        norm_terms = []
        total_p = 0.0
        for p, branches in terms:
            p = float(p)
            if p <= 0:
                raise ValueError("term probabilities must be positive")
            bs = tuple(Branch(complex(c), int(m), ket) for (c, m, ket) in branches)
            levels = [b.m for b in bs]
            if len(set(levels)) != len(levels):
                raise ValueError("duplicate qudit level within one term")
            if any(b.m < 0 or b.m >= d for b in bs):
                raise ValueError("qudit level out of range")
            csum = sum(abs(b.c) ** 2 for b in bs)
            if abs(csum - 1.0) > 1e-12:
                raise ValueError(f"branch coefficients have norm^2 {csum}, expected 1")
            norm_terms.append((p, bs))
            total_p += p
        if abs(total_p - 1.0) > 1e-12:
            raise ValueError(f"term probabilities sum to {total_p}, expected 1")
        self.qudit_dim = d
        self.terms = tuple(norm_terms)

    @classmethod
    def pure(cls, qudit_dim, branches):
        return cls(qudit_dim, [(1.0, branches)])

    @property
    def term_count(self):
        return len(self.terms)

    @property
    def is_pure(self):
        return len(self.terms) == 1

    def kets(self):
        """Distinct qumode kets in order of first appearance."""
        seen = []
        for _, branches in self.terms:
            for b in branches:
                if b.ket not in seen:
                    seen.append(b.ket)
        return seen

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
        return f"HybridState(d={self.qudit_dim}, terms={self.term_count})"


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


class ModalPure:
    """Pure state on an ordered list of sites, each a qudit or a qumode.

    sites: tuple of ints (qudit dimension) or the string 'mode'.
    branches: (coefficient, values) with one int per qudit site and one
    SymbolicKet per mode site.  Used for the multi-mode catalog states; the
    bipartite HybridState stays the primary container.
    """

    def __init__(self, sites, branches):
        self.sites = tuple(sites)
        norm = []
        for c, values in branches:
            values = tuple(values)
            if len(values) != len(self.sites):
                raise ValueError("branch length does not match site count")
            for s, v in zip(self.sites, values):
                if s == "mode":
                    if not isinstance(v, SymbolicKet):
                        raise ValueError("mode sites need SymbolicKet values")
                elif not (0 <= int(v) < int(s)):
                    raise ValueError("qudit level out of range")
            norm.append((complex(c), values))
        self.branches = tuple(norm)

    def norm_squared(self):
        total = 0.0 + 0.0j
        for c1, v1 in self.branches:
            for c2, v2 in self.branches:
                total += np.conj(c1) * c2 * self._branch_overlap(v1, v2)
        return total.real

    def _branch_overlap(self, v1, v2):
        out = 1.0 + 0.0j
        for s, a, b in zip(self.sites, v1, v2):
            if s == "mode":
                out *= overlap(a, b)
            elif a != b:
                return 0.0 + 0.0j
        return out
