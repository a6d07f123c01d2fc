"""Two-tone electromechanics: squeezing, single-quadrature readout, inference.

A toolkit for a two-cavity microwave optomechanical system in which
asymmetric sideband driving of a control cavity stabilizes a squeezed
mechanical state and a balanced tone pair on a measurement cavity reads a
single mechanical quadrature without backaction. The same physics is
computed three independent ways (closed form, Lyapunov steady state of the
full linear model, truncated-Fock master equation) and a synthetic
measurement pipeline turns spectra into occupancies, tomograms and
squeezing metrics.
"""

__version__ = "0.1.0"

from .analytic import (
    BathParams,
    QuadratureMoments,
    backaction_occupancy,
    occupancy_from_variances,
    quadrature_variances,
    squeezed_bath_params,
    variance_of_phase,
)
from .dynamics import (
    CovarianceMatrix,
    LinearModel,
    Spectrum,
    build_linear_model,
    driven_response,
    mechanical_marginal,
    output_spectrum,
    spectrum_grid,
    steady_covariance,
    transparency_window_fwhm,
)
from .errors import (
    ConfigError,
    DomainError,
    FitError,
    InstabilityError,
    NumericalError,
    TruncationError,
)
from .inference import (
    LorentzianFit,
    SqueezingMetrics,
    TomogramFit,
    backaction_evasion_report,
    fit_lorentzian,
    occupancy_from_sidebands,
    squeezing_metrics,
    tomography_sweep,
)
from .oracle import (
    EffectiveDissipators,
    TruncatedState,
    build_liouvillian,
    converged_steady_state,
    number_occupancy,
    quad_variance,
    steady_state,
)
from .synthesis import NoiseModel, NoisySpectrum, synthesize
from .sysmodel import (
    Cavity,
    Drive,
    DriveSet,
    MechanicalMode,
    SystemConfig,
    ValidationReport,
    drive_pair,
    is_qnd,
    photons_for_rate,
    scattering_rate,
    validate_system,
)
