"""Quantifying hybrid entanglement after compression.

Compression is exact, so DV measures evaluated on the compressed matrices
reproduce closed forms to near machine precision: the two-mode cat concurrence
surface, the qubit-qumode entropy, Schmidt coefficients, and the tangle
distribution of tripartite states.
"""

import numpy as np

from hyqent import (DensityMatrix, ckw, compress_vector, concurrence,
                    entropy_of_entanglement, schmidt)
from hyqent.catalog import qutrit_qumode, tripartite_qqm, two_mode_cat

# --- two-mode cat concurrence ------------------------------------------------
print("two-mode cat concurrence (compressed Wootters vs closed form):")
for alpha in (0.5, 1.0):
    for phi in (0.0, np.pi / 2, np.pi):
        v, dims = compress_vector(two_mode_cat(alpha, phi).payload)
        got = concurrence(DensityMatrix.from_ket(v, dims))
        e = np.exp(-4 * alpha**2)
        closed = (1 - e) / (1 + e * np.cos(phi))
        print(f"  alpha={alpha:3.1f} phi={phi:4.2f}:  {got:.12f}  vs  {closed:.12f}")
print("  phi=pi is maximally entangled for ANY nonzero amplitude.")

# --- entropy of a qubit-qumode state ----------------------------------------
from hyqent import SymbolicKet
from hyqent.catalog import qubit_qumode

st = qubit_qumode(0.5, 0.0, SymbolicKet.coherent(0.8), SymbolicKet.coherent(-0.8))
v, dims = compress_vector(st.payload)
print(f"\nbalanced qubit-qumode state at alpha=0.8: "
      f"E_S = {entropy_of_entanglement(v, dims):.6f} bits "
      f"(1 bit needs orthogonal kets)")

# --- Schmidt coefficients of the qutrit example -------------------------------
alpha = np.sqrt(2 * np.log(2))  # vacuum overlap exactly 1/2
dec = schmidt(*compress_vector(qutrit_qumode(alpha).payload))
print(f"\nqutrit-qumode Schmidt coefficients at x=1/2: "
      f"{np.round(dec.coefficients, 4)}")

# --- tangle distribution in a qubit-qubit-qumode state ------------------------
print("\nresidual tangle of the qubit-qubit-qumode family (total is always 1):")
print("  Q      C2(A|B)   tau_res")
for q in (0.0, 0.5, 0.9, 1.0):
    rep = ckw(tripartite_qqm(q).payload.vector)
    print(f"  {q:3.1f}    {rep.c2_ab:7.4f}   {rep.tau_res:7.4f}")
print("  tuning one overlap trades GHZ-like tripartite content for a Bell pair.")
