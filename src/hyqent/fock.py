"""Truncated Fock-space numerics for bosonic modes.

Dimensionless quadratures with [x, p] = i throughout; a photon-number cutoff
``n_cut`` means the space is spanned by |0>, ..., |n_cut|.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmall

DEFAULT_TAIL_TOL = 1e-10


def default_cutoff(alpha_max):
    """Photon-number cutoff adequate for coherent amplitudes up to |alpha_max|.

    Poisson tail bound: mean photon number nbar = |alpha|^2 plus eight standard
    deviations plus a fixed margin keeps the neglected weight far below any
    tolerance used in this package.
    """
    nbar = abs(alpha_max) ** 2
    return int(np.ceil(nbar + 8.0 * np.sqrt(nbar + 1.0) + 10.0))


def _poisson_weight(n, nbar):
    """e^-nbar nbar^n / n! to a few ulps, in Loader's saddle-point form.

    exp(-stirling(n) - deviance) / sqrt(2 pi n), with the Stirling remainder
    stirling(n) = log n! - (n + 1/2) log n + n - log(2 pi)/2 and the deviance
    n log(n / nbar) + nbar - n summed as a series near n = nbar, where its
    terms would cancel (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000).
    """
    if n == 0:
        return math.exp(-nbar)
    if n <= 15:
        stirling = math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    else:
        nn = float(n) * n
        # asymptotic series, accurate to a few 1e-17 from n = 16 on
        stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn)
                    / nn) / n
    if abs(n - nbar) < 0.1 * (n + nbar):
        v = (n - nbar) / (n + nbar)
        deviance, term, j = (n - nbar) * v, 2.0 * n * v, 1
        while True:
            term *= v * v
            nxt = deviance + term / (2 * j + 1)
            if nxt == deviance:
                break
            deviance, j = nxt, j + 1
    else:
        deviance = n * math.log(n / nbar) + nbar - n
    return math.exp(-stirling - deviance) / math.sqrt(2 * math.pi * n)


def coherent_tail_weight(alpha, n_cut):
    """Exact weight of |alpha> beyond the cutoff, sum_{n > n_cut} e^-nbar nbar^n/n!.

    The Poisson survival function.  A cutoff above the mean sums the tail
    outward from n_cut + 1; otherwise the weight is 1 minus the head summed
    down from n_cut.  Either way the terms fall from the first one on, and
    the sum stops once they drop below 1e-17 of it.
    """
    nbar = abs(alpha) ** 2
    if nbar == 0.0:
        return 0.0
    outward = nbar < n_cut + 1
    k = n_cut + 1 if outward else n_cut
    first = term = _poisson_weight(k, nbar)
    terms = []
    while term > 1e-17 * first and k >= 0:
        terms.append(term)
        if outward:
            k += 1
            term *= nbar / k
        else:
            term *= k / nbar
            k -= 1
    total = math.fsum(terms)
    return total if outward else 1.0 - total


def require_cutoff(alpha, n_cut, tail_tol=DEFAULT_TAIL_TOL, r=0.0, theta=0.0):
    """Raise CutoffTooSmall unless n_cut holds S(xi)|alpha> to tail_tol, xi = r e^{i theta}.

    Checked are the weights beyond n_cut of |alpha> and, for r != 0, of the coherent ket of
    the mean amplitude <a> and of the squeezed vacuum S(xi)|0>, the last from its exact
    amplitudes; it is below tanh^(n_cut+1) r cosh r, which gives its suggested cutoff.
    """
    for amp in (alpha, _through_squeezer(alpha, -r, theta)) if r else (alpha,):
        tail = coherent_tail_weight(amp, n_cut)
        if tail > tail_tol:
            raise CutoffTooSmall(f"cutoff {n_cut} leaves tail weight {tail:.3e} > {tail_tol:.1e} "
                                 f"for alpha = {amp}", suggested=default_cutoff(amp))
    if r:
        vacuum = squeezed_amplitudes(0.0, r, theta, n_cut + 1)
        tail = 1.0 - float(np.vdot(vacuum, vacuum).real)
        if tail > tail_tol:
            t = math.tanh(abs(r))
            needed = math.ceil(math.log(tail_tol / math.cosh(r)) / math.log(t)) if t < 1 else None
            raise CutoffTooSmall(f"cutoff {n_cut} leaves tail weight {tail:.3e} > {tail_tol:.1e} "
                                 f"for squeezing r = {r}", suggested=needed)


def mode_operators(n_cut):
    """Annihilation, creation and number operators on the truncated space.

    <n-1|a|n> = sqrt(n); the creation operator is the exact adjoint, so on the
    truncated space [a, a^dag] = 1 everywhere except the bottom-right entry,
    which is -n_cut.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    a = np.diag(np.sqrt(np.arange(1, n_cut + 1)), 1).astype(complex)
    adag = a.conj().T
    return a, adag, adag @ a


def coherent_ket(alpha, n_cut=None, tail_tol=DEFAULT_TAIL_TOL):
    """Truncated Glauber expansion e^{-|a|^2/2} sum_n a^n/sqrt(n!) |n>, the r = 0 case of
    squeezed_amplitudes.

    Raises CutoffTooSmall when the neglected Poisson tail exceeds tail_tol.
    """
    alpha = complex(alpha)
    if n_cut is None:
        n_cut = default_cutoff(alpha)
    require_cutoff(alpha, n_cut, tail_tol)
    return squeezed_amplitudes(alpha, 0.0, 0.0, n_cut + 1)


def squeezed_amplitudes(alpha, r, theta, size):
    """Exact amplitudes <n|S(xi)|alpha> for n < size, xi = r e^{i theta}.

    S(xi)|alpha> is the eigenket of S a S^dag = cosh r a + e^{i theta} sinh r a^dag with
    eigenvalue alpha (Yuen, PRA 13, 2226 (1976)), so its amplitudes obey the recursion
    sqrt(n+1) cosh r psi_{n+1} = alpha psi_n - sqrt(n) e^{i theta} sinh r psi_{n-1}, run
    from 1 and scaled by the closed form psi_0 = exp(-|alpha|^2/2 + e^{-i theta} tanh r
    alpha^2/2) / sqrt(cosh r).  At r = 0 it is the Glauber expansion.  Exact rescalings by
    2^-500, and psi_0 in log form below the normal range, keep large amplitudes finite.
    """
    alpha = complex(alpha)
    c, s = math.cosh(r), cmath.exp(1j * theta) * math.sinh(r)
    prev, amp, cuts = 0j, 1 + 0j, []
    amps = [amp]
    for n in range(1, size):
        prev, amp = amp, (alpha * amp - math.sqrt(n - 1) * s * prev) * (1 / (c * math.sqrt(n)))
        if abs(amp) > 2.0**500:
            prev, amp, cuts = prev * 2.0**-500, amp * 2.0**-500, cuts + [n]
        amps.append(amp)
    lift = cmath.exp(-1j * theta) * math.tanh(r) * alpha * alpha / 2
    log_psi_0 = lift.real - abs(alpha) ** 2 / 2
    shift = len(cuts) if log_psi_0 < -708.4 else 0  # so that psi_0 2^(500 shift) is normal
    # np.exp, not math.exp (they can differ by an ulp): coherent_ket's bits are np.exp's
    psi_0 = np.exp(log_psi_0 + shift * 500 * math.log(2)) * cmath.exp(1j * lift.imag) / math.sqrt(c)
    if cuts:  # powers of two, exact wherever psi_0 is normal
        psi_0 = psi_0 * 2.0 ** (500 * (np.searchsorted(cuts, np.arange(size), "right") - shift))
    return np.array(amps) * psi_0


def _through_squeezer(alpha, r, theta):
    """beta = alpha cosh r + conj(alpha) e^{i theta} sinh r, so D(alpha) S(xi) = S(xi) D(beta).

    Yuen, PRA 13, 2226 (1976).  At -r it returns the mean amplitude <a> of S(xi)|alpha>.
    """
    return alpha * np.cosh(r) + np.conj(alpha) * np.exp(1j * theta) * np.sinh(r)


def overlap_coherent(alpha, beta):
    """Analytic coherent-state overlap <beta|alpha>, broadcast over alpha and beta.

    exp(-|alpha|^2/2 - |beta|^2/2 + conj(beta) alpha); magnitude <= 1, and
    <-alpha|alpha> = exp(-2|alpha|^2).  The one Gaussian factor of every
    ladder closed form (kets.overlaps, channels.thermal_dyad_moments).
    """
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    return np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(beta) * alpha)


def displace(alpha, n_cut, tail_tol=DEFAULT_TAIL_TOL):
    """Displacement unitary D(alpha) = exp(alpha a^dag - conj(alpha) a)."""
    require_cutoff(alpha, n_cut, tail_tol)
    a, adag, _ = mode_operators(n_cut)
    return _unitary_exp(alpha * adag - np.conj(alpha) * a)


def phase_shifter(phi, n_cut):
    """Phase-shift unitary exp(i phi a^dag a), diagonal in the Fock basis."""
    return np.diag(np.exp(1j * phi * np.arange(n_cut + 1)))


def squeeze(theta, r, n_cut, tail_tol=DEFAULT_TAIL_TOL):
    """Squeezing unitary S(theta, r) = exp(r/2 (e^{-i theta} a^2 - e^{i theta} a^dag^2))."""
    require_cutoff(0.0, n_cut, tail_tol, r, theta)
    a, adag, _ = mode_operators(n_cut)
    g = np.exp(-1j * theta) * (a @ a) - np.exp(1j * theta) * (adag @ adag)
    return _unitary_exp(0.5 * r * g)


def beamsplit(theta, phi=0.0, n_cut=None, n_cut2=None):
    """Two-mode beam splitter with transmissivity eta = cos^2(theta).

    Convention fixed so that mode 1 is the transmitted system and mode 2 the
    environment: for phi = 0 the generator is theta (a1 a2^dag - a1^dag a2) and

        U |alpha> x |0>  =  |sqrt(eta) alpha> x |sqrt(1-eta) alpha>.
    """
    if n_cut is None or n_cut < 1:
        raise ValueError("beamsplit needs n_cut >= 1")
    if n_cut2 is None:
        n_cut2 = n_cut
    a1, a1d, _ = mode_operators(n_cut)
    a2, a2d, _ = mode_operators(n_cut2)
    g = np.exp(1j * phi) * np.kron(a1, a2d) - np.exp(-1j * phi) * np.kron(a1d, a2)
    return _unitary_exp(theta * g)


def _unitary_exp(g):
    """exp(g) for an anti-Hermitian g, as V e^{-i lam} V^dag from the eigh of i g.

    i g is Hermitian, so its eigenvector matrix V is unitary and the result is
    unitary to rounding (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    """
    lam, v = np.linalg.eigh(1j * g)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def fock_wavefunction(n, x):
    """Position wavefunction psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)).

    Evaluated with the normalized recursion so large n does not overflow.
    """
    if n < 0:
        raise ValueError("Fock index must be >= 0")
    x = np.asarray(x, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return h0 if h0.ndim else float(h0)
    h1 = np.sqrt(2.0) * x * h0
    for k in range(1, n):
        h0, h1 = h1, np.sqrt(2.0 / (k + 1)) * x * h1 - np.sqrt(k / (k + 1.0)) * h0
    return h1 if h1.ndim else float(h1)


def laguerre_rows(m_max, a):
    """Rows 2m+1+a, sqrt(m(m+a)), sqrt((m+1)(m+1+a)) of laguerre_step for m < m_max.

    At the integer orders a, stacked with shape (3, m_max, *a.shape); each
    distinct order is computed once and gathered.
    """
    m, n = np.arange(m_max)[:, None], np.arange(np.max(a, initial=0) + 1)
    table = np.array([2.0 * m + 1 + n, np.sqrt(m * (m + n)), np.sqrt((m + 1.0) * (m + 1 + n))])
    return np.take(table, a, axis=2)


def laguerre_step(p, p_prev, z, rise, fall, norm):
    """p_{m+1} = [((2m+1+a) c + z) p_m - c^2 sqrt(m(m+a)) p_{m-1}] / sqrt((m+1)(m+1+a)).

    rise and fall are laguerre_rows at m times c and c^2.  From p_0 = 1 it gives
    p_m = c^m l_m^a(-z/c), where l_m^a = sqrt(m! a! / (m+a)!) L_m^(a) is the normalized
    Laguerre function (Johansson, Nation & Nori, CPC 184, 1234 (2013)); at c = 0 too.
    """
    return ((rise + z) * p - fall * p_prev) / norm


@dataclass(frozen=True)
class WignerField:
    """Wigner function samples on a rectangular grid.

    values[i, j] = W(grid_x[i], grid_p[j]); mass is the trapezoidal integral
    over the grid and converged is False when the grid misses support
    (mass < 0.999).
    """

    grid_x: np.ndarray
    grid_p: np.ndarray
    values: np.ndarray
    mass: float
    converged: bool


def wigner(rho, grid_x, grid_p):
    """Wigner function of a single-mode density matrix on a grid.

    Evaluated as an exact finite Fock-basis double sum over the matrix entries
    (no quadrature in y), so the only error sources are the state's own
    truncation and the grid extent.  With z = x + ip and r^2 = 2|z|^2,

        W = (1/pi) sum_d (2 - delta_d0) Re[e^{-r^2/2} (sqrt(2) z)^d / sqrt(d!)
                                            sum_m (-1)^m rho[m, m+d] l_m^d(r^2)],

    where l_m^d = sqrt(m! d! / (m+d)!) L_m^d is the normalized generalized
    Laguerre function: laguerre_step at c = 1, z = -r^2 advances every
    diagonal d at once on the distinct radii of the grid; diagonals beyond
    the farthest nonzero entry of rho are never formed.
    """
    matrix = getattr(rho, "matrix", rho)
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    xs = np.asarray(grid_x, dtype=float)
    ps = np.asarray(grid_p, dtype=float)
    x2, p2 = np.meshgrid(xs, ps, indexing="ij")
    radii, where = np.unique(2.0 * (x2 * x2 + p2 * p2).ravel(), return_inverse=True)
    rows, cols = np.nonzero(matrix)
    n_diag = int(np.abs(rows - cols).max(initial=0)) + 1
    rise, fall, norm = laguerre_rows(dim, np.arange(n_diag)[:, None])  # at c = 1
    sums = np.zeros((n_diag, radii.size), dtype=complex)
    lag_prev, lag = np.zeros(sums.shape), np.ones(sums.shape)
    for m in range(dim):
        k = min(n_diag, dim - m)  # diagonals that still have an entry rho[m, m+d]
        sums[:k] += (-1) ** m * matrix[m, m:m + k, None] * lag[:k]
        k = min(k, dim - m - 1)  # diagonals the next step still needs
        lag_prev, lag = lag[:k], laguerre_step(lag[:k], lag_prev[:k], -radii, rise[m, :k],
                                               fall[m, :k], norm[m, :k])
    sums *= np.exp(-radii / 2.0)
    values = sums[0, where].real
    phase = np.ones(x2.size, dtype=complex)
    step = np.sqrt(2.0) * (x2 + 1j * p2).ravel()
    for n in range(1, n_diag):
        phase *= step / np.sqrt(n)
        values += 2.0 * (sums[n, where] * phase).real
    w = values.reshape(x2.shape) / np.pi
    mass = float(np.trapezoid(np.trapezoid(w, ps, axis=1), xs))
    return WignerField(xs, ps, w, mass, bool(mass >= 0.999))
