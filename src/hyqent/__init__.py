"""Hybrid qudit-qumode entanglement toolbox.

Builds hybrid discrete-continuous quantum states, compresses the ones spanned
by finitely many qumode kets into exact finite-dimensional density matrices,
quantifies their entanglement, pushes them through decoherence channels, and
detects entanglement with moment-matrix witnesses.
"""

__version__ = "0.1.0"

from .channels import (KrausSet, ThermalChannelParams, ThermalHybridState,
                       amplitude_damp, apply_kraus, apply_thermal, choi_state,
                       concurrence_evolution_check, identity_kraus,
                       make_kraus_set, negativity_evolution_check,
                       qubit_loss_kraus, thermal_dyad_moments, thermal_kraus)
from .composite import DensityMatrix, partial_trace, partial_transpose, purity, tensor
from .compression import (Classification, GramCoefficients, classify, compress,
                          compress_vector, inverse_gram_schmidt, ket_expansion)
from .errors import (CutoffTooSmall, DegenerateNormalization, InconsistentMoments,
                     NumericInconsistency, UnsupportedKet)
from .fock import (WignerField, beamsplit, coherent_ket, coherent_tail_weight,
                   default_cutoff, displace, fock_wavefunction, hermite,
                   mode_operators, overlap_coherent, phase_shifter,
                   position_density, squeeze, wigner, wigner_marginal_x)
from .gaussian import (GaussianState, beamsplitter_symplectic, gaussian_entropy,
                       gaussian_log_negativity, phase_symplectic, ppt_condition,
                       squeezer_symplectic, symplectic_eigenvalues,
                       symplectic_form, thermal_cov, tmss_cov, vacuum_cov)
from .kets import (MODE, HybridState, InfiniteHybridFamily, SymbolicKet, gram_matrix, overlap,
                   overlaps)
from .measures import (SchmidtDecomposition, TangleReport, ckw, concurrence,
                       entanglement_of_formation, entropy_of_entanglement,
                       log_negativity, majorizes, negativity, schmidt)
from .witness import (MatrixMomentProvider, MomentMatrix, SymbolicMomentProvider,
                      WitnessRegion, cat_witness_determinants, geometric_mixture_s1,
                      geometric_s1_bound, heaviside_half, mixed24_s1, moment_minor,
                      optimal_alpha, principal_minor, qudit_mode_operators, s1_minor,
                      s2_minor, squeezed_s1, sv_moment_matrix, sv_multi_indices, swap_operator,
                      swap_witness, thermal_s1, thermal_threshold, witness_region)
