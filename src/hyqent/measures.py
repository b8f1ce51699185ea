"""Entanglement measures for finite-dimensional states.

All logarithms are base 2, so entropies and logarithmic negativities are in
e-bits, including for qutrit and larger subsystems.
"""

from dataclasses import dataclass

import numpy as np

from .composite import DensityMatrix, partial_trace, partial_transpose

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY)
NORM_TOL = 1e-8  # how far a pure state's norm may be from 1
RANK_TOL = 1e-12  # Schmidt coefficients at or below this are dropped
MAJORIZATION_TOL = 1e-12  # slack on each partial-sum comparison
PROBABILITY_SUM_TOL = 1e-10  # how far a probability vector's sum may be from 1


def _spectrum_entropy(probs):
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    nz = probs[probs > 0]
    # a product state's entropy rounds to -0 or a few ulps below it; it is 0
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def _unit_ket(psi):
    """psi as a flat complex array; raises ValueError unless its norm is 1 within NORM_TOL."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if not abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL:
        raise ValueError("state is not normalized")
    return psi


def entropy_of_entanglement(psi, dims):
    """Von Neumann entropy (bits) of either reduction of a pure bipartite state."""
    psi = _unit_ket(psi)
    da, db = dims
    if psi.size != da * db:
        raise ValueError("state length does not match dims")
    s = np.linalg.svd(psi.reshape(da, db), compute_uv=False)
    return _spectrum_entropy(s**2)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """|psi> = sum_i coefficients[i] |left_basis[:, i]> |right_basis[:, i]>.

    Coefficients are the square roots of the reduced-density eigenvalues in
    descending order; basis phases are fixed so the coefficients are real and
    positive.  Within a degenerate block the basis is whatever the solver
    returns.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    @property
    def rank(self):
        return self.coefficients.size

    def reconstruct(self):
        return np.einsum("k,ik,jk->ij", self.coefficients,
                         self.left_basis, self.right_basis).ravel()


def schmidt(psi, dims):
    """Schmidt decomposition of a normalized pure bipartite state."""
    psi = _unit_ket(psi)
    da, db = dims
    u, s, vh = np.linalg.svd(psi.reshape(da, db), full_matrices=False)
    keep = s > RANK_TOL
    return SchmidtDecomposition(s[keep], u[:, keep], vh[keep, :].T)


def majorizes(a, b):
    """True when a is majorized by b (all partial sums of sorted a <= b's).

    This is the LOCC direction: a pure state with Schmidt coefficients a can
    be deterministically transformed into one with coefficients b exactly when
    majorizes(a, b) holds; uniform coefficients are majorized by everything.
    Vectors of different length are zero-padded.
    """
    a = np.sort(np.asarray(a, dtype=float))[::-1]
    b = np.sort(np.asarray(b, dtype=float))[::-1]
    if not (abs(a.sum() - 1.0) <= PROBABILITY_SUM_TOL
            and abs(b.sum() - 1.0) <= PROBABILITY_SUM_TOL):
        raise ValueError("majorization needs probability vectors summing to 1")
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    return bool(np.all(np.cumsum(a) <= np.cumsum(b) + MAJORIZATION_TOL))


def concurrence(rho):
    """Wootters concurrence of a two-qubit DensityMatrix.

    max(0, sqrt(xi1) - sqrt(xi2) - sqrt(xi3) - sqrt(xi4)) with xi the
    eigenvalues of rho (sy x sy) rho* (sy x sy) in decreasing order.  Directly
    diagonalizing that product is ill-conditioned (it is only similar to a
    positive matrix), so the sqrt(xi) are computed as the singular values of
    the complex-symmetric L^dag (sy x sy) conj(L) with rho = L L^dag, which is
    exactly equivalent and machine-precision stable; tiny negative
    eigenvalues of rho itself are clipped to zero first.

    A qubit times a one-dimensional factor, dims (2, 1) or (1, 2), is a
    product state by construction (total loss compresses to one), so its
    concurrence is exactly 0.
    """
    if rho.dims in ((2, 1), (1, 2)):
        return 0.0
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs dims (2, 2), got {rho.dims}")
    w, v = np.linalg.eigh(rho.matrix)
    left = v * np.sqrt(np.clip(w, 0.0, None))
    roots = np.linalg.svd(left.conj().T @ _YY @ left.conj(), compute_uv=False)
    # roots below ~sqrt(machine eps) of the leading one are rank-deficiency
    # noise (they scale as sqrt of spurious eigenvalues of rho), not data
    roots[roots < 1e-7 * roots.max()] = 0.0
    return float(max(0.0, 2.0 * roots.max() - roots.sum()))


def entanglement_of_formation(rho):
    """Two-qubit entanglement of formation s((1 + sqrt(1 - C^2))/2)."""
    c = concurrence(rho)
    x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return _spectrum_entropy([x, 1.0 - x])


def negativity(rho, subsystem=1):
    """Sum of negative partial-transpose eigenvalue magnitudes.

    Zero exactly for PPT states; which side is transposed is irrelevant.
    """
    ev = np.linalg.eigvalsh(partial_transpose(rho, subsystem))
    return float((np.abs(ev).sum() - ev.sum()) / 2.0)


def log_negativity(rho, subsystem=1):
    """log2(1 + 2 negativity) = log2 of the partial-transpose trace norm (bits)."""
    return float(np.log2(1.0 + 2.0 * negativity(rho, subsystem)))


@dataclass(frozen=True)
class TangleReport:
    """Squared concurrences and residual tangle of a pure three-qubit state.

    tau_res = c2_a_bc - c2_ab - c2_ac is the GHZ-like genuine tripartite
    share; the monogamy inequality c2_ab + c2_ac <= c2_a_bc makes it
    nonnegative.
    """

    c2_ab: float
    c2_ac: float
    c2_bc: float
    c2_a_bc: float
    tau_res: float

    @property
    def total(self):
        """c2_ab + c2_ac + c2_bc + tau_res, the state's distributed content."""
        return self.c2_ab + self.c2_ac + self.c2_bc + self.tau_res


def ckw(psi):
    """Pairwise tangles and residual entanglement of a pure 2x2x2 state.

    The one-vs-rest tangle uses C^2(A|BC) = 4 det(rho_A), valid for pure
    states, which is also where the residual tangle is defined.
    """
    if np.size(psi) != 8:
        raise ValueError("ckw needs a pure three-qubit state vector")
    rho = DensityMatrix.from_ket(psi, (2, 2, 2))  # checks the norm
    c2_ab = concurrence(partial_trace(rho, [0, 1])) ** 2
    c2_ac = concurrence(partial_trace(rho, [0, 2])) ** 2
    c2_bc = concurrence(partial_trace(rho, [1, 2])) ** 2
    rho_a = partial_trace(rho, [0]).matrix
    c2_a_bc = float(np.clip(4.0 * np.linalg.det(rho_a).real, 0.0, 1.0))
    return TangleReport(c2_ab, c2_ac, c2_bc, c2_a_bc, c2_a_bc - c2_ab - c2_ac)
