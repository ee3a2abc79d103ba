"""DFT-based Portmanteau test for second order stationarity of a time
series, with benchmark process generators, Monte Carlo drivers and power
diagnostics for locally stationary alternatives."""

import importlib

from .errors import (
    BandwidthWarning,
    ComputationError,
    InputError,
    StationarityTestError,
)
from .numerics import (
    RngStream,
    chisq_quantile,
    chisq_sf,
    dft_canonical,
)
from .spectral import KernelSpec
from .stattest import (
    CorrectionSpec,
    SegmentBlock,
    SegmentReport,
    TestResult,
    segmented_test,
    stationarity_test,
)

# The simulation and Monte Carlo layers load on first use: testing a series
# never needs them, and they were about 40% of the package's import
# (README.md, "Start-up").
_LAZY = {
    **dict.fromkeys(
        ("ArmaSpec", "ChangepointArSpec", "GeneratorConfig", "ModulatedNoiseSpec",
         "PRESET_NAMES", "TvInnovationArSpec", "generate", "local_spectrum",
         "model_preset", "spec_from_dict"),
        "simulate"),
    **dict.fromkeys(
        ("McConfig", "McReport", "PowerProfile", "lag_scan", "power_profile",
         "rejection_rate"),
        "experiments"),
}

__version__ = "0.1.0"

__all__ = [
    "ArmaSpec",
    "BandwidthWarning",
    "ChangepointArSpec",
    "ComputationError",
    "CorrectionSpec",
    "GeneratorConfig",
    "InputError",
    "KernelSpec",
    "McConfig",
    "McReport",
    "ModulatedNoiseSpec",
    "PRESET_NAMES",
    "PowerProfile",
    "RngStream",
    "SegmentBlock",
    "SegmentReport",
    "StationarityTestError",
    "TestResult",
    "TvInnovationArSpec",
    "chisq_quantile",
    "chisq_sf",
    "dft_canonical",
    "generate",
    "lag_scan",
    "local_spectrum",
    "model_preset",
    "power_profile",
    "rejection_rate",
    "segmented_test",
    "spec_from_dict",
    "stationarity_test",
]


def __getattr__(name):
    """The submodules ``simulate`` and ``experiments`` and the names
    re-exported from them, imported on first access (PEP 562)."""
    if name in ("simulate", "experiments"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
