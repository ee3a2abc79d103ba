"""DFT-based Portmanteau test for second order stationarity of a time
series, with benchmark process generators, Monte Carlo drivers and power
diagnostics for locally stationary alternatives."""

from .errors import (
    BandwidthTooSmallError,
    BandwidthWarning,
    ComputationError,
    DegenerateSpectrumError,
    DegenerateTransferError,
    InputError,
    InvalidCorrectionError,
    InvalidInputError,
    InvalidLagError,
    NumericalError,
    SegmentationDepthError,
    StabilityError,
    StationarityTestError,
)
from .numerics import (
    RngStream,
    chisq_quantile,
    chisq_sf,
    dft_canonical,
    gauss_stream,
)
from .spectral import KernelSpec, SpectralEstimate, smooth_spectral
from .stattest import (
    CorrectionSpec,
    SegmentBlock,
    SegmentReport,
    TestResult,
    segmented_test,
    stationarity_test,
)
from .simulate import (
    ArmaSpec,
    ChangepointArSpec,
    GeneratorConfig,
    ModulatedNoiseSpec,
    PRESET_NAMES,
    TvInnovationArSpec,
    generate,
    local_spectrum,
    model_preset,
    spec_from_dict,
)
from .experiments import (
    McConfig,
    McReport,
    PowerProfile,
    lag_scan,
    power_profile,
    rejection_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ArmaSpec",
    "BandwidthTooSmallError",
    "BandwidthWarning",
    "ChangepointArSpec",
    "ComputationError",
    "CorrectionSpec",
    "DegenerateSpectrumError",
    "DegenerateTransferError",
    "GeneratorConfig",
    "InputError",
    "InvalidCorrectionError",
    "InvalidInputError",
    "InvalidLagError",
    "KernelSpec",
    "McConfig",
    "McReport",
    "ModulatedNoiseSpec",
    "NumericalError",
    "PRESET_NAMES",
    "PowerProfile",
    "RngStream",
    "SegmentBlock",
    "SegmentReport",
    "SegmentationDepthError",
    "SpectralEstimate",
    "StabilityError",
    "StationarityTestError",
    "TestResult",
    "TvInnovationArSpec",
    "chisq_quantile",
    "chisq_sf",
    "dft_canonical",
    "gauss_stream",
    "generate",
    "lag_scan",
    "local_spectrum",
    "model_preset",
    "power_profile",
    "rejection_rate",
    "segmented_test",
    "smooth_spectral",
    "spec_from_dict",
    "stationarity_test",
]
