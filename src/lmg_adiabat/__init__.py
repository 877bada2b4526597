"""Adiabatic preparation of GHZ- and W-type entangled spin states.

Simulates N two-level spins under a driven collective (LMG-type) interaction
with per-spin dephasing: Hamiltonian builders, a deterministic fixed-step
master-equation integrator (one set of numpy kernels),
turn-key transfer scenarios, robustness ensembles and parameter sweeps.
All frequencies are in units of the resonator frequency nu, all times in 1/nu.
"""

__version__ = "0.1.0"

from ._kernels import get_kernels, resolve_backend
from .dynamics import (
    DriveSchedule,
    LindbladSpec,
    TrajectoryResult,
    calibrated_schedule,
    constant_hamiltonian_states,
    evolve,
    evolve_batch,
    evolve_state,
)
from .model import (
    DisorderProfile,
    EffectiveCoefficients,
    FullModelParams,
    LinearHamiltonian,
    LmgRegime,
    build_disorder_term,
    build_effective_lmg,
    classify_lmg,
    effective_coefficients,
    full_interaction_frame,
    full_interaction_hamiltonian,
    isotropic_spectrum,
    lmg_sweep_hamiltonian,
)
from .operators import (
    FockSpace,
    SpinRegister,
    boson_operator,
    collective_operator,
    embed_single_spin,
    x_basis_transform,
    y_basis_transform,
)
from .protocols import (
    REFERENCE_DISORDER_PROFILES,
    REFERENCE_DISPERSION_PAIRS,
    EnsembleReport,
    ReductionReport,
    ScenarioConfig,
    ScenarioRun,
    disorder_ensemble,
    dispersion_ensemble,
    reference_disorder_profiles,
    preset,
    preset_delta,
    run_scenario,
    run_scenarios,
    validate_effective_reduction,
)
from .states import (
    dicke_state,
    population,
    target_branches,
    target_state,
)
from .sweep import SweepGrid, SweepTable, run_sweep
