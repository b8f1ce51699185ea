"""Detecting entanglement from moments when no measure applies.

Principal minors of the matrix of partially transposed moments are nonnegative
on every separable state, so one negative minor certifies entanglement -- even
for truly hybrid states with no density-matrix description.  The same minors
also illustrate two failure modes: a local squeezing that hides entanglement
from a fixed minor, and mixtures whose large amplitudes defeat it.
"""

import numpy as np

from hyqent import (SymbolicMomentProvider, apply_thermal,
                    ThermalChannelParams, cat_witness_determinants,
                    geometric_mixture_s1, mixed24_s1, optimal_alpha, s1_minor,
                    s2_minor, squeezed_s1, sv_moment_matrix, thermal_s1,
                    thermal_threshold, witness_region)
from hyqent.catalog import binary_coherent, mixed24

# --- the two workhorse determinants on the binary-coherent state ---------------
st = binary_coherent(1.0).payload
mm = sv_moment_matrix(SymbolicMomentProvider(st), 2, qudit_dim=2)
print("binary-coherent state at alpha = 1:")
print(f"  s1 = {s1_minor(mm):+.8f}   (negative: entanglement detected)")
print(f"  s2 = {s2_minor(mm):+.8f}   (second moments alone see nothing)")

# --- every cat phase is covered by the step-function selection ----------------
print("\ntwo-mode cat: selected determinant over the phase circle (alpha = 0.6):")
for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
    s1, s2, sel = cat_witness_determinants(0.6, phi)
    tag = "s1" if np.cos(phi + np.pi) > 0 else ("s2" if np.cos(phi) > 0 else "both/2")
    print(f"  phi = {phi:4.2f}: selected = {sel:+.6f}  (using {tag})")

# --- a local unitary can blind a fixed witness ---------------------------------
print("\nsqueezing the qumode (entanglement unchanged!) can defeat s1:")
for r in (0.0, 0.3, 0.8):
    print(f"  r = {r:3.1f}: s1 = {squeezed_s1(1.2, r):+.6f}")

# --- mixtures: four kets, and the large-amplitude failure ----------------------
print("\nmixture holding +-alpha and +-i alpha (p = 1/2):")
for alpha in (0.3, 0.8, 1.5):
    print(f"  alpha = {alpha:3.1f}: s1 = {mixed24_s1(0.5, alpha):+.6f}")

# --- truly hybrid states ---------------------------------------------------------
params = ThermalChannelParams(2 / 3, 0.1)
thermal = apply_thermal(binary_coherent(0.44).payload, params)
mm = sv_moment_matrix(SymbolicMomentProvider(thermal), 2, qudit_dim=2)
print(f"\nthermal-channel output (truly hybrid), eta=2/3, n_th=0.1, alpha=0.44:")
print(f"  generic-path s1 = {s1_minor(mm):+.8f}")
print(f"  closed form     = {thermal_s1(0.44, 2 / 3, 0.1):+.8f}")
print(f"  noise tolerance peaks at alpha = {optimal_alpha():.4f}, independent of"
      f" eta; threshold there: {thermal_threshold(optimal_alpha(), 2 / 3):.4f}")

region = witness_region(lambda alpha, n_th: thermal_s1(alpha, 2 / 3, n_th),
                        {"alpha": np.linspace(0.05, 1.2, 24),
                         "n_th": np.linspace(0.0, 0.25, 26)})
frac = region.verdict.mean()
print(f"  witnessed fraction of the (alpha, n_th) grid: {frac:.1%}")

s1, bound = geometric_mixture_s1(0.1, 0.3)
print(f"\ngeometric mixture x=0.1, alpha=0.3: series s1 = {s1:+.6f}, "
      f"sufficient bound = {bound:+.6f} (< 0 certifies the infinite family)")
