"""Suite-wide settings.

Property tests draw the same examples on every run (``derandomize``), keep
no example database between runs and have no per-example deadline, since
their timings vary with the machine. A test sets only what differs, such
as its example count.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("dftstat", derandomize=True, deadline=None, database=None)
    settings.load_profile("dftstat")
