import dftstat

# The exported names, pinned so that the public surface changes only on
# purpose: test oracles and internals stay out of it.
PUBLIC_NAMES = [
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
    "spec_from_dict",
    "stationarity_test",
]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 41
    assert len(set(dftstat.__all__)) == len(dftstat.__all__)
    assert dftstat.__all__ == PUBLIC_NAMES
    for name in dftstat.__all__:
        getattr(dftstat, name)
