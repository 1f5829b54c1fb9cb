"""Strong-coupling quantum thermodynamics of sudden quenches."""

from .errors import (
    BadFactorCount,
    DimensionMismatch,
    InvalidSpec,
    NotHermitian,
    NotPositiveDefinite,
    QuenchThermError,
    SupportMismatch,
)
from .operators import (
    DensityMatrix,
    Operator,
    SpectralDecomposition,
    identity,
    partial_trace,
    pauli,
    tensor_product,
)
from .thermo import (
    GibbsEnsemble,
    MeanForceBundle,
    ThermalContext,
    effective_energy_operator,
    embed_reservoir,
    embed_system,
    gibbs,
    internal_energy_diff,
    internal_energy_estar,
    log_partition,
    mean_force_bundle,
    mean_force_hamiltonian,
    thermal_context,
    thermal_entropy,
)
from .quench import (
    EQUILIBRATED,
    GENERAL_QUENCH,
    INTERACTION_QUENCH,
    SYSTEM_QUENCH,
    UNITARY,
    QuenchSpec,
    SecondLawAudit,
    ThermoLedger,
    evolve_unitary,
    relative_entropy,
    run_quench,
    run_sweep,
    second_law_audit,
)
from .twospin import (
    ClosedFormStatics,
    TwoSpinParams,
    closed_form_statics,
    interaction_quench_ledger,
    reservoir_hamiltonian,
    system_quench_ledger,
    two_spin_hamiltonian,
    two_spin_matrices,
)

__version__ = "0.1.0"
