"""Covariance-matrix formalism for Gaussian states.

Quadratures are ordered (x1, p1, ..., xN, pN) with the symplectic block
J = [[0, 1], [-1, 0]]; the vacuum covariance is the identity, so the
Heisenberg condition reads gamma + iJ >= 0 without factor-of-two ambiguity.
"""

from dataclasses import dataclass

import numpy as np


def symplectic_form(n_modes):
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = j
    return out


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix and displacement vector of an N-mode Gaussian state."""

    covariance: np.ndarray
    displacement: np.ndarray = None

    def __post_init__(self):
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise ValueError("covariance must be real 2N x 2N")
        if not np.abs(cov - cov.T).max() <= 1e-12:
            raise ValueError("covariance must be symmetric")
        disp = (np.zeros(cov.shape[0]) if self.displacement is None
                else np.array(self.displacement, dtype=float))
        if disp.shape != (cov.shape[0],) or not np.isfinite(disp).all():
            raise ValueError("displacement must be 2N finite reals")
        j = symplectic_form(cov.shape[0] // 2)
        lo = float(np.linalg.eigvalsh(cov + 1j * j).min())
        if lo < -1e-10:
            raise ValueError(f"Heisenberg condition violated, min eig {lo}")
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "displacement", disp)


def symplectic_eigenvalues(gamma):
    """Williamson invariants, the |eigenvalues| of i J^-1 gamma, descending.

    Physical states have every value >= 1; the vacuum sits exactly at 1.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.abs(gamma - gamma.T).max() > 1e-10:
        raise ValueError("covariance must be symmetric")
    n = gamma.shape[0] // 2
    j = symplectic_form(n)
    ev = np.abs(np.linalg.eigvals(1j * np.linalg.inv(j) @ gamma).real)
    ev = np.sort(ev)[::-1]
    return ev[::2]  # each invariant appears twice


def _mode_block(gamma, modes):
    sel = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    return gamma[np.ix_(sel, sel)]


def _entropy_term(mu):
    if mu <= 1.0 + 1e-12:
        return 0.0
    up, dn = (mu + 1.0) / 2.0, (mu - 1.0) / 2.0
    return float(up * np.log2(up) - dn * np.log2(dn))


def gaussian_entropy(gamma, n_a):
    """Entropy of entanglement (bits) of a pure Gaussian state across a mode split.

    Sum of s((mu+1)/2) terms over the symplectic spectrum of the first n_a
    modes' reduced covariance; requires the global state to be pure (all
    global invariants 1).
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.abs(symplectic_eigenvalues(gamma) - 1.0).max() > 1e-8:
        raise ValueError("entropy of entanglement needs a pure global state")
    reduced = _mode_block(gamma, range(n_a))
    return sum(_entropy_term(mu) for mu in symplectic_eigenvalues(reduced))


def _time_reversed(gamma, n_a):
    """gamma with p -> -p on every mode from n_a on: the partial transpose."""
    gamma = np.asarray(gamma, dtype=float)
    flip = np.ones(gamma.shape[0])
    flip[2 * n_a + 1::2] = -1.0
    return gamma * np.outer(flip, flip)


def gaussian_log_negativity(gamma, n_a):
    """Logarithmic negativity (bits) across the split after the first n_a modes.

    Partial transposition is the time reversal p -> -p on one side; then
    E_N = -sum log2 min(1, mu~) over the partially transposed spectrum.
    """
    mus = symplectic_eigenvalues(_time_reversed(gamma, n_a))
    return float(-sum(np.log2(min(1.0, mu)) for mu in mus))


def ppt_condition(gamma, n_a):
    """Min eigenvalue of gamma^PT + iJ; negative exactly for NPT two-mode states."""
    tilde = _time_reversed(gamma, n_a)
    return float(np.linalg.eigvalsh(tilde + 1j * symplectic_form(tilde.shape[0] // 2)).min())


# ---------------------------------------------------------------------------
# symplectic generators (same conventions as the Fock-space unitaries)


def squeezer_symplectic(r, theta=0.0):
    """Single-mode squeezer; for theta = 0, x -> e^-r x and p -> e^r p."""
    c, s = np.cos(theta), np.sin(theta)
    return np.cosh(r) * np.eye(2) - np.sinh(r) * np.array([[c, s], [s, -c]])


def phase_symplectic(phi):
    """Phase-space rotation of a single mode."""
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def beamsplitter_symplectic(theta):
    """Two-mode beam splitter with transmissivity cos^2(theta) (phi = 0)."""
    i2 = np.eye(2)
    c, s = np.cos(theta), np.sin(theta)
    return np.block([[c * i2, s * i2], [-s * i2, c * i2]])


def embed_symplectic(s, modes, n_modes):
    """Embed a symplectic matrix acting on ``modes`` into an N-mode identity."""
    out = np.eye(2 * n_modes)
    sel = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    out[np.ix_(sel, sel)] = s
    return out


def vacuum_cov(n_modes):
    return np.eye(2 * n_modes)


def thermal_cov(nbar):
    """Single-mode thermal state, variance 2 nbar + 1 in both quadratures."""
    return (2.0 * nbar + 1.0) * np.eye(2)


def tmss_cov(r):
    """Two-mode squeezed vacuum, built from the squeezer and beam-splitter generators.

    Two opposite single-mode squeezers mixed on a balanced beam splitter give
    the standard form [[cosh 2r I, sinh 2r Z], [sinh 2r Z, cosh 2r I]].
    """
    s = embed_symplectic(squeezer_symplectic(r), [0], 2) @ \
        embed_symplectic(squeezer_symplectic(-r), [1], 2)
    bs = beamsplitter_symplectic(np.pi / 4)
    total = bs @ s
    return total @ total.T
