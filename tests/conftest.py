import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_density(rng, dim, rank=None):
    """Wishart-style random density matrix."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pairwise_term_norm(sites, branches):
    """Reference <psi|psi> of (c, values) branches: one scalar overlap per mode site and pair."""
    from hyqent.kets import MODE, overlap

    def braket(v1, v2):
        return np.prod([overlap(a, b) if s == MODE else float(a == b)
                        for s, a, b in zip(sites, v1, v2)])
    return sum((np.conj(c1) * c2 * braket(v1, v2)).real
               for c1, v1 in branches for c2, v2 in branches)


def normalized_by_overlaps(sites, branches):
    """(c, values) branches rescaled to unit norm through their ket overlaps."""
    scale = np.sqrt(pairwise_term_norm(sites, branches))
    return [(c / scale, values) for c, values in branches]


def shared_level_qubit():
    """Qubit-qumode term with branches sharing both levels, normalized through its overlaps.

    Level 0 holds an even-cat-like pair, level 1 a coherent and a vacuum ket;
    every ket is coherent, so the exact moment route applies too.
    """
    from hyqent.kets import MODE, HybridState, SymbolicKet

    k = SymbolicKet.coherent
    raw = [(0.6, (0, k(0.8))), (0.5, (0, k(-0.8 + 0.2j))), (0.5j, (1, k(0.3))),
           (-0.3, (1, k(0.0)))]
    return HybridState.pure((2, MODE), normalized_by_overlaps((2, MODE), raw))
