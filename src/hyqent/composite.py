"""Multi-subsystem state algebra: density matrices with explicit subsystem
dimensions, tensor products, partial trace and partial transpose."""

from math import prod

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_TOL = 1e-10


class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix with subsystem dims.

    Subsystem structure is explicit metadata; the matrix acts on the tensor
    product of the listed dimensions in order.  Eigenvalues in [-eig_tol, 0)
    are tolerated as numerical noise; anything below is rejected.

    A (P, D, D) matrix is a stack of P states on the same dims, checked one
    by one by the same array operations: the first failing state raises what
    it would raise alone, for the first check it fails.
    """

    def __init__(self, matrix, dims, trace_tol=TRACE_TOL, herm_tol=HERMITIAN_TOL,
                 eig_tol=EIG_TOL):
        matrix = np.array(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
            raise ValueError("density matrix must be square")
        n = matrix.shape[-1]
        if prod(dims) != n:
            raise ValueError(f"dims {dims} do not match matrix order {n}")
        stack = matrix.reshape(-1, n, n)
        # |M - M^H|^2 entrywise from the real and imaginary parts, which avoids
        # a conjugated copy read transposed and a hypot per entry
        re, im = stack.real, stack.imag
        skew = np.square(re - re.swapaxes(1, 2)) + np.square(im + im.swapaxes(1, 2))
        tr = np.trace(stack, axis1=1, axis2=2).real
        first = len(stack)  # the first point that fails the Hermitian or trace check
        if not (skew.max(initial=0.0) <= herm_tol ** 2
                and abs(tr - 1.0).max(initial=0.0) <= trace_tol):
            hermitian = skew.max(axis=(1, 2), initial=0.0) <= herm_tol ** 2
            first = np.flatnonzero(~(hermitian & (abs(tr - 1.0) <= trace_tol)))[0]
        # M + eig_tol I has a Cholesky factor exactly when no eigenvalue of M lies
        # below -eig_tol, up to rounding; only a failed factorization needs the spectrum.
        # Only the points before `first` need it: any failure among them comes first.
        shifted = stack[:first].copy()
        shifted.reshape(-1, n * n)[:, ::n + 1] += eig_tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            for m, s in zip(stack, shifted):
                try:
                    np.linalg.cholesky(s)
                except np.linalg.LinAlgError:
                    lo = float(np.linalg.eigvalsh(m).min())
                    if lo < -eig_tol:
                        raise ValueError(f"matrix has negative eigenvalue {lo}") from None
        if first < len(stack):
            if not hermitian[first]:
                raise ValueError("matrix is not Hermitian within tolerance")
            raise ValueError(f"trace {tr[first]} is not 1 within {trace_tol}")
        self.matrix = matrix
        self.dims = dims

    @classmethod
    def from_ket(cls, vector, dims, norm_tol=1e-8):
        """|v><v| of a unit vector; a (P, D) array gives the stack of its rows' projectors."""
        vector = np.asarray(vector, dtype=complex)
        nrm = norms(vector)
        bad = ~(abs(nrm - 1.0) <= norm_tol)
        if bad.any():
            raise ValueError(f"ket norm {nrm[bad][0] if nrm.ndim else nrm} is not 1 "
                             f"within {norm_tol}")
        vector = vector / nrm[..., None]
        return cls(vector[..., :, None] * vector[..., None, :].conj(), dims)

    def __repr__(self):
        stack = f", points={self.matrix.shape[0]}" if self.matrix.ndim == 3 else ""
        return f"DensityMatrix(dims={self.dims}{stack})"


def norms(vectors):
    """Euclidean norms of complex vectors along the last axis.

    sqrt(re . re + im . im) per vector, the form numpy.linalg.norm takes for one
    vector, so a vector's norm is the same alone and inside a stack.
    """
    return np.sqrt(np.vecdot(vectors.real, vectors.real) + np.vecdot(vectors.imag, vectors.imag))


def tensor(a, b):
    """Kronecker product of two density matrices, operators or kets.

    Density matrices concatenate their subsystem dims; plain arrays (operators
    or state vectors) reduce to numpy.kron.  Mixing kinds is an error.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    if isinstance(a, DensityMatrix) or isinstance(b, DensityMatrix):
        raise ValueError("cannot tensor a DensityMatrix with a plain array")
    return np.kron(np.asarray(a), np.asarray(b))


def _as_tensor(rho):
    """rho as a tensor with one ket and one bra index per subsystem, after any point axis."""
    return rho.matrix.reshape(rho.matrix.shape[:-2] + rho.dims + rho.dims)


def point_values(values):
    """A float for one state's 0-d result, the array itself for a stack's."""
    return float(values) if np.ndim(values) == 0 else values


def partial_trace(rho, keep):
    """Reduced density matrix over the subsystems in ``keep`` (original order)."""
    keep = sorted(set(int(k) for k in (keep if np.iterable(keep) else [keep])))
    n = len(rho.dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem indices {keep} for dims {rho.dims}")
    t = _as_tensor(rho)
    lead = rho.matrix.ndim - 2
    traced = [k for k in range(n) if k not in keep]
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=lead + k, axis2=lead + k + (t.ndim - lead) // 2)
    d = int(np.prod([rho.dims[k] for k in keep]))
    return DensityMatrix(t.reshape(rho.matrix.shape[:-2] + (d, d)),
                         tuple(rho.dims[k] for k in keep))


def partial_transpose(rho, subsystem):
    """Transpose the indices of one subsystem; Hermitian but possibly not PSD.

    Returns a plain array since the result is generally not a state.
    """
    n = len(rho.dims)
    subsystem = int(subsystem)
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"invalid subsystem {subsystem} for dims {rho.dims}")
    t = _as_tensor(rho)
    lead = rho.matrix.ndim - 2
    axes = list(range(t.ndim))
    i, j = lead + subsystem, lead + subsystem + n
    axes[i], axes[j] = axes[j], axes[i]
    return t.transpose(axes).reshape(rho.matrix.shape)


def purity(rho):
    """tr[rho^2]; 1 for pure states, 1/d for the maximally mixed state."""
    m = rho.matrix
    return point_values(np.einsum("...ij,...ji->...", m, m).real)
