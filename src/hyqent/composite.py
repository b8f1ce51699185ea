"""Multi-subsystem state algebra: density matrices with explicit subsystem
dimensions, tensor products, partial trace and partial transpose."""

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_TOL = 1e-10


class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix with subsystem dims.

    Subsystem structure is explicit metadata; the matrix acts on the tensor
    product of the listed dimensions in order.  Eigenvalues in [-eig_tol, 0)
    are tolerated as numerical noise; anything below is rejected.
    """

    def __init__(self, matrix, dims, trace_tol=TRACE_TOL, herm_tol=HERMITIAN_TOL,
                 eig_tol=EIG_TOL):
        matrix = np.array(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        if int(np.prod(dims)) != matrix.shape[0]:
            raise ValueError(f"dims {dims} do not match matrix order {matrix.shape[0]}")
        # |M - M^H|^2 entrywise from the real and imaginary parts, which avoids
        # a conjugated copy read transposed and a hypot per entry
        re, im = matrix.real, matrix.imag
        if not (np.square(re - re.T) + np.square(im + im.T)).max() <= herm_tol ** 2:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(matrix).real
        if not abs(tr - 1.0) <= trace_tol:
            raise ValueError(f"trace {tr} is not 1 within {trace_tol}")
        # M + eig_tol I has a Cholesky factor exactly when no eigenvalue of M lies
        # below -eig_tol, up to rounding; only a failed factorization needs the spectrum
        shifted = matrix.copy()
        shifted.flat[::shifted.shape[0] + 1] += eig_tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(matrix).min())
            if lo < -eig_tol:
                raise ValueError(f"matrix has negative eigenvalue {lo}") from None
        self.matrix = matrix
        self.dims = dims

    @classmethod
    def from_ket(cls, vector, dims, norm_tol=1e-8):
        vector = np.asarray(vector, dtype=complex).ravel()
        nrm = np.linalg.norm(vector)
        if not abs(nrm - 1.0) <= norm_tol:
            raise ValueError(f"ket norm {nrm} is not 1 within {norm_tol}")
        vector = vector / nrm
        return cls(np.outer(vector, vector.conj()), dims)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dims={self.dims})"


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
    return rho.matrix.reshape(rho.dims + rho.dims)


def partial_trace(rho, keep):
    """Reduced density matrix over the subsystems in ``keep`` (original order)."""
    keep = sorted(set(int(k) for k in (keep if np.iterable(keep) else [keep])))
    n = len(rho.dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem indices {keep} for dims {rho.dims}")
    t = _as_tensor(rho)
    traced = [k for k in range(n) if k not in keep]
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d = int(np.prod([rho.dims[k] for k in keep]))
    return DensityMatrix(t.reshape(d, d), tuple(rho.dims[k] for k in keep))


def partial_transpose(rho, subsystem):
    """Transpose the indices of one subsystem; Hermitian but possibly not PSD.

    Returns a plain array since the result is generally not a state.
    """
    n = len(rho.dims)
    subsystem = int(subsystem)
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"invalid subsystem {subsystem} for dims {rho.dims}")
    t = _as_tensor(rho)
    axes = list(range(2 * n))
    axes[subsystem], axes[subsystem + n] = axes[subsystem + n], axes[subsystem]
    return t.transpose(axes).reshape(rho.matrix.shape)


def purity(rho):
    """tr[rho^2]; 1 for pure states, 1/d for the maximally mixed state."""
    m = rho.matrix
    return float(np.einsum("ij,ji->", m, m).real)
