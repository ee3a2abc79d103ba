"""Exception families, warning category and the checks that raise InputError.

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


def _checked_int(value, name: str, positive: bool = False) -> int:
    """``value`` as an int if it is integral (an integral float too) and, when
    ``positive``, at least 1; else InputError naming it: nothing is truncated."""
    try:
        if int(value) == value and (value >= 1 or not positive):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, None, ...
        pass
    kind = "a positive integer" if positive else "an integer"
    raise InputError(f"{name} must be {kind}, got {value!r}")


def _as_tuple(values, name: str) -> tuple:
    """``values`` as a tuple, else InputError naming them: they are not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {values!r}") from None


def _of_type(value, name: str, *kinds):
    """``value`` if it is an instance of one of the classes ``kinds``, else
    InputError naming it."""
    if isinstance(value, kinds):
        return value
    raise InputError(f"{name} must be of type {' or '.join(k.__name__ for k in kinds)}, "
                     f"got {value!r}")


def _within(value, lo, hi, closed: bool = False) -> bool:
    """lo < value < hi, or lo <= value < hi when ``closed``; False for a value
    that does not compare with numbers (a str, None, a longer array, ...)."""
    try:
        return bool((lo <= value if closed else lo < value) and value < hi)
    except (TypeError, ValueError):
        return False
