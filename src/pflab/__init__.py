"""pflab: desk-scale numerical laboratory for a fibered Pauli-Fierz
Hamiltonian (electron spin coupled to a cutoff quantized radiation field at
fixed total momentum) on a truncated photon Fock space."""

from .errors import (
    ConfigError,
    DimensionCapError,
    DomainError,
    GapTooSmallError,
    IndeterminateDegeneracy,
    NonHermitianError,
    NotAxialError,
    PflabError,
    ResourceError,
    SolverError,
)
from .fock import (
    FockBasis,
    Mode,
    ModeSet,
    axial_mode_set,
    enumerate_basis,
    explicit_mode_set,
    hermiticity_defect,
    spin_tensor,
)
from .model import (
    Dispersion,
    FormFactor,
    ModelConfig,
    assemble_hamiltonian,
    build_basis,
    check_dispersion_axioms,
    coupling_bound,
    polarization_vectors,
    rotation_matrix,
)
from .quadrature import QuadratureSpec
from .spectra import (
    GapReport,
    GroundCluster,
    RadialEnergyCurve,
    SpectralResult,
    choose_method,
    detect_ground_cluster,
    energy_sweep,
    gap_estimate,
    model_operators,
    solve_lowest,
    solve_model,
    sweep_energy_curve,
)

__version__ = "0.1.0"
