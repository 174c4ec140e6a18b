"""Planar ion Coulomb crystals in Penning traps: equilibrium configurations,
symplectic normal modes, modulated-carrier two-qubit gates, and the
state-dependent dipole-force pulse designer behind them."""

from .scales import (
    IonSpecies,
    ScaleSet,
    SpeciesRecord,
    StabilityClass,
    TrapFrequencies,
    TrapSetup,
    anisotropy,
    beta_critical,
    beta_from_ratio,
    derive_scales,
    effective_radial_frequency,
    get_species,
    load_species_table,
    stability_class,
    trap_frequencies,
)
from .crystal import (
    AnnealSchedule,
    CrystalState,
    anneal,
    default_schedule,
    effective_potential,
    find_equilibrium,
    newton_refine,
    rotation_frequency_from_ptheta,
    total_angular_momentum,
)
from .modes import (
    BandClassification,
    ModeSpectrum,
    QuadraticHamiltonian,
    build_hessian,
    classify_bands,
    orthogonal_modes,
    williamson,
)

__version__ = "0.1.0"

from .gate import (  # noqa: E402
    GateResult,
    GateSpec,
    LaserGeometry,
    LaserResources,
    calibrate_amplitude,
    calibrated_phase,
    fidelity,
    fidelity_curve,
    force_profile,
    form_factors,
    laser_resources,
    mode_drive,
    residual_displacement,
    two_qubit_phase,
)
from .beams import (  # noqa: E402
    ForceTerm,
    Level,
    Line,
    Polarization,
    PulseSequence,
    QubitState,
    Regime,
    Scheme,
    build_pulse_sequence,
    classify_regime,
    dipole_force,
    lande_g,
    solve_intensity_ratio,
    verify_conditions,
    zeeman_shift,
)
from .bench import (  # noqa: E402
    ExperimentConfig,
    RunArtifacts,
    StageError,
    load_state,
    parse_config,
    run_experiment,
    save_state,
    select_pair,
    sweep,
)
