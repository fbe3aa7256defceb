"""macrosize: effective-size measures for macroscopic quantum superpositions
of photonic modes and collective-spin ensembles, with the photon-absorption
mapping connecting the two pictures.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set. numpy's OpenBLAS is the only one the package loads, and its worker
threads busy-wait between calls; on matrices of a few hundred rows, the
largest the package builds, they cost more than they save. OpenBLAS reads
the variable when it loads, so the pin has no effect in a process that
imported numpy (or scipy, which brings its own) before macrosize. An
explicit setting wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .entanglement import (
    entanglement_entropy,
    helstrom_ps,
    negativity,
    schmidt_values,
    split,
)
from .mapping import (
    MappingReport,
    approx_absorb,
    exact_absorb,
    mapping_fidelity,
    verify_disentangling_identity,
    verify_operator_map,
)
from .measures import (
    Homodyne,
    MeasureResult,
    PhotonCount,
    c_delta,
    d_bar,
    fisher_matrix,
    index_p,
    index_q,
    m_squared,
    max_variance_collective,
    mean_and_covariance,
    n_eff,
    normalized_sum,
    relative_fisher,
    size_pg,
    size_prefactor,
    wigner_I_photonic,
    wigner_I_spin,
)
from .scaling import (
    DEFAULT_LADDER,
    FamilyBundle,
    FamilyId,
    ScalingFit,
    StateFamily,
    SweepResult,
    Table1Report,
    classify,
    family_state,
    fit_exponent,
    sweep,
    sweep_fixed_excitation,
    table1,
)
from .states import (
    branch_pair,
    build_state,
    make_coherent,
    make_dicke,
    make_displaced_single_photon,
    make_even_cat,
    make_fock,
    make_fock_superposition,
    make_ghz,
    make_mixed_cat,
    make_odd_cat,
    make_spin_coherent,
    state_from_dict,
    state_to_dict,
)
from .symcore import (
    ContractViolation,
    DensityOp,
    DickeBasis,
    FockBasis,
    PureState,
    SuperpositionPair,
    check_kind,
    collective_apply,
    default_spin_truncation,
    mode_basis,
    raising_coefficients,
    spin_basis,
    trace_norm,
)
