"""Exact diagonalization of the half-filled extended Hubbard chain with
block-block entanglement in real and momentum space."""

from .eigen import (
    ConvergenceError,
    GroundStateResult,
    SolverOptions,
    dense_ground,
    ground_state,
    lanczos_ground,
)
from .fock import BlockSpec, Sector, SectorBasis, enumerate_sector
from .hamiltonian import (
    ModelParams,
    SparseHamiltonian,
    boundary_for,
    build_real_hamiltonian,
)
from .momentum import (
    MomentumGrid,
    allowed_momenta,
    build_momentum_hamiltonian,
    momentum_pair_block,
    total_momentum,
)
from .rdm import (
    LocalWeights,
    ReducedDensityMatrix,
    dominant_config,
    local_entanglement,
    local_weights,
    rdm_rank,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .reference import (
    ReferenceState,
    classify_config,
    free_fermion_ground_energy,
    perturbation_energies,
    ps_crossover_U,
    ps_rank,
    psd_local_entropy,
    reference_state,
)
from .sweep import (
    ScalingFit,
    SweepRow,
    SweepSpec,
    derivative_scan,
    momentum_scan,
    run_grid,
    run_point,
    scaling_fit,
    size_scan,
)

__version__ = "0.1.0"
