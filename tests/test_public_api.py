import ast
import inspect
from pathlib import Path

import dftstat
import dftstat.errors

# The exported names, pinned so that the public surface changes only on
# purpose: test oracles and internals stay out of it.
PUBLIC_NAMES = [
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


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 31
    assert len(set(dftstat.__all__)) == len(dftstat.__all__)
    assert dftstat.__all__ == PUBLIC_NAMES
    for name in dftstat.__all__:
        getattr(dftstat, name)


def test_errors_are_two_families_under_one_base():
    # callers tell failures apart by family (exit code 2 or 3 in the CLI) and
    # by message; a leaf class would be one more name that no code catches
    defined = {name for name, obj in vars(dftstat.errors).items()
               if inspect.isclass(obj) and obj.__module__ == dftstat.errors.__name__}
    assert defined == {"StationarityTestError", "InputError", "ComputationError",
                       "BandwidthWarning"}
    for family in (dftstat.InputError, dftstat.ComputationError):
        assert family.__bases__ == (dftstat.StationarityTestError,)


def test_no_module_keeps_state_in_a_global_statement():
    # values kept between calls go through numerics._Memo or functools.lru_cache,
    # never through a module name rebound by hand
    for path in sorted(Path(dftstat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert found == [], f"{path.name} has a global statement at lines {found}"
