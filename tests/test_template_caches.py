"""Template-keyed caches: what a build or measure derives from its template alone.

A cold build (every cache cleared) and a warm one (every lookup a hit) must
give the same arrays bit for bit, every cached array is read-only, and two
templates that differ in one slot's form never share an entry.
"""

import numpy as np
import pytest

from hyqent import (HybridState, SymbolicKet, SymbolicMomentProvider, catalog, compression,
                    kets, witness)
from hyqent.channels import ThermalHybridState
from hyqent.kets import MODE

# every template-keyed cache, by module and name
CACHES = [(kets, "_level_pairs"), (kets, "_site_masks"), (kets, "_regroup"),
          (compression, "_placement"), (witness, "_dyads"), (witness, "_words"),
          (witness, "_index_set")]
COHERENT = (0, 0.0, 0.0)
ALPHA = np.array([0.3, 0.9, 1e-7, 1.4])


def _clear():
    for module, name in CACHES:
        getattr(module, name).cache_clear()


def _hits():
    return sum(getattr(module, name).cache_info().hits for module, name in CACHES)


def _inline_hybrid():
    """One term whose first two branches share qudit level 0, so their overlap counts."""
    branches = [(1.0, 0, SymbolicKet.coherent(0.8)), (0.5j, 0, SymbolicKet.coherent(-0.4)),
                (0.7, 1, SymbolicKet.coherent(0.2j))]
    norm = kets.term_norm((2, MODE), [(c, (m, k)) for c, m, k in branches])
    return HybridState(2, [(1.0, [(c / np.sqrt(norm), m, k) for c, m, k in branches])])


BUILDS = {
    "two-mode-cat": lambda: catalog.two_mode_cat(ALPHA, np.array([0.0, np.pi, 2.0, 1.0])),
    "binary-coherent": lambda: catalog.binary_coherent(ALPHA, 0.5),
    "damped-binary-coherent": lambda: catalog.damped_binary_coherent(
        ALPHA, np.array([0.0, 0.6, 1.0, 0.3])),
    "thermal-output": lambda: catalog.thermal_output(ALPHA[[0, 1, 3]], 0.7,
                                                     np.array([0.0, 0.1, 0.4])),
    "qutrit-qumode": lambda: catalog.qutrit_qumode(ALPHA),
    "mixed-23": lambda: catalog.mixed23(np.array([0.0, 0.4, 1.0, 0.5]), ALPHA),
    "mixed-24": lambda: catalog.mixed24(np.array([0.0, 0.4, 1.0, 0.5]), ALPHA),
    "qubus": lambda: catalog.qubus_state(ALPHA, np.array([0.5, 1.0, 2.0, 3.0]), 0.8),
    "tripartite-qmm": lambda: catalog.tripartite_qmm(np.array([0.1, 0.5]), np.array([0.9, 0.0])),
    "one damped state": lambda: catalog.damped_binary_coherent(0.8, 0.6),
    "one thermal state": lambda: catalog.thermal_output(0.8, 0.6, 0.2),
    "inline hybrid": lambda: catalog.NamedState("hybrid", {}, _inline_hybrid()),
}


def _arrays(named):
    """Every array of a build's states, their compressed matrices and witness minors, and
    their templates."""
    payload = named.payload
    arrays, templates = [], []
    for index, group in payload if isinstance(payload, tuple) else [(np.arange(1), payload)]:
        arrays.append(index)
        if isinstance(group, catalog.DiscreteKet):
            arrays.append(group.vector)
            continue
        state = group.base if isinstance(group, ThermalHybridState) else group
        arrays += [state.p, state.c, *state.amps]
        templates.append(state.template)
        if state is group:
            for sub, stack in compression.stacks(state):
                arrays += [sub, compression.compress(stack).matrix]
        if state.sites[0] != MODE and state.sites[1:] == (MODE,):
            provider = SymbolicMomentProvider(group)
            arrays += [witness.moment_minor(provider, witness.S1_INDICES),
                       witness.moment_minor(provider, witness.S2_INDICES)]
    return arrays, templates


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_a_warm_build_equals_a_cold_one_bit_for_bit(build):
    _clear()
    cold, cold_templates = _arrays(BUILDS[build]())
    hits = _hits()
    warm, warm_templates = _arrays(BUILDS[build]())
    if build != "tripartite-qmm":  # a plain DV ket has no template
        assert _hits() > hits
    assert warm_templates == cold_templates
    assert len(cold) == len(warm)
    for x, y in zip(cold, warm):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _walk(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for y in x:
            yield from _walk(y)


def test_every_cached_array_is_read_only(monkeypatch):
    _clear()
    results = []
    for module, name in CACHES:
        cached = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *key, cached=cached: results.append(cached(*key)) or results[-1])
    for build in BUILDS.values():
        _arrays(build())
    arrays = [x for result in results for x in _walk(result)]
    assert len(arrays) > 50
    assert not any(x.flags.writeable for x in arrays)


@pytest.mark.parametrize("first", ["coherent", "photon-added"])
def test_templates_that_differ_in_one_form_share_no_entry(first):
    # equal amplitudes on both slots: two coherent kets coincide and share one slot, while
    # the photon-added ket a^dag|alpha> keeps its own slot and its own form
    forms = {"coherent": (COHERENT, COHERENT), "photon-added": (COHERENT, (1, 0.0, 0.0))}
    amps = np.full((3, 2), 0.6 + 0.2j)

    def build(kind):
        [(index, state)] = HybridState.stack((2, MODE), (2,), ((0, 1), (0, 1)), (forms[kind],),
                                             np.ones((3, 1)), np.full((3, 2), 0.5 ** 0.5 + 0j),
                                             (amps,))
        return state

    second = "photon-added" if first == "coherent" else "coherent"
    _clear()
    alone = build(second)
    _clear()
    build(first)
    after = build(second)
    assert after.template == alone.template
    if second == "coherent":
        assert after.forms == ((COHERENT,),) and after.columns[1] == (0, 0)
    else:
        assert after.forms == ((COHERENT, (1, 0.0, 0.0)),) and after.columns[1] == (0, 1)
    assert np.array_equal(after.amps[0], alone.amps[0])
    assert np.array_equal(compression.compress(after).matrix, compression.compress(alone).matrix)
