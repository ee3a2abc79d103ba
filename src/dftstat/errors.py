"""Exception families and warning category.

Two error families matter to callers: :class:`InputError` covers anything a
user can fix (bad flags, bad lags, malformed data, an unstable model) and maps
to CLI exit code 2, while :class:`ComputationError` covers numerical
breakdowns (degenerate spectra, non-finite integrands) and maps to exit code
3. The message of each error names the check that failed.
"""


class StationarityTestError(Exception):
    """Base class for all errors raised by this package."""


class InputError(StationarityTestError):
    """A problem with user-supplied input or configuration."""


class ComputationError(StationarityTestError):
    """Numerical failure during an otherwise valid computation."""


class BandwidthWarning(UserWarning):
    """Bandwidth outside the admissible window (T^-1/2, T^-1/4)."""
