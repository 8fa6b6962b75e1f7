"""Exactly solvable PT-symmetric coupled waveguides vs tight-binding models."""

__version__ = "0.1.0"

from .seeds import SeedTerm, SeedSuperposition, DerivativeBundle, wronskian_bundle
from .darboux import (
    SingularPointError,
    first_order_potential,
    second_order_potential,
    apply_A1,
    apply_L12,
    symmetry_residual,
    regularity_scan,
)
from .systems import (
    ParameterError,
    HermitianStaticParams,
    PTStaticParams,
    PTDynamicParams,
    WaveguideSystem,
    make_system,
    periods,
)
from .quadrature import QuadratureSpec
from .tightbinding import (
    WellBasis,
    TBModel,
    two_well_model,
    single_well_potential,
    single_well_mode,
    overlap_kappa,
    kappa_hermitian_closed_form,
    solve_spectrum,
    propagate_coefficients,
    floquet_monodromy,
    assemble_state,
    StepControl,
)
from .calibrate import CalibrationProblem, spectral_match, profile_match, default_problem
from .observables import (
    ObservableSeries,
    ExactState,
    TBStaticState,
    TBTrajectoryState,
    moment_series,
    moment_table,
    comparison_metrics,
)
from .bpm import PropagationGrid, propagate, pde_residual, eigen_residual
from .config import validate_config, ConfigError

__all__ = [name for name in dir() if not name.startswith("_")]
