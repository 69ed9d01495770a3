"""Spectral-gap analysis of quadratic fermionic Hamiltonians."""

from .errors import (
    CapacityError,
    ConformanceError,
    FermigapError,
    InputError,
    NumericalError,
)
from .quadform import (
    CoefficientPair,
    GapProfile,
    GapReport,
    LiebDecomposition,
    gap_profile,
    ground_gap,
    interpolate,
    lieb_decompose,
    subset_sum_spectrum,
    symmetrize_split,
)
from .lattice import (
    TorusSpec,
    build_torus_2d,
    build_torus_3d,
    build_xy_cycle,
    expand,
    g_eigenvalues,
    structured_gap_profile,
)
from .ensembles import (
    EnsembleConfig,
    edelman_cdf,
    figure1_experiment,
    figure2_experiment,
    gap_distribution_experiment,
    sample_pair,
    survival_experiment,
)
from .spinrep import (
    FermionOperatorSet,
    PauliHamiltonian,
    ab_to_w,
    build_cluster_w,
    build_ising_w,
    dense_hamiltonian,
    dense_spectrum_oracle,
    fcr_check,
    jw_operators,
    spin32_operators,
    unitary_fcr_transform,
    w_to_ab,
)

__version__ = "0.1.0"
