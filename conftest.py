"""Suite-wide set-up that has to happen before any test runs.

The hypothesis pytest plugin imports `hypothesis.extra._patching` while it
reports a failing property test. That import emits a DeprecationWarning
(from mypy_extensions), which the suite's `error` warning filter turns into
an exception inside the report hook: the run ends in INTERNALERROR, names no
test and skips the rest. Importing the module once here, with that warning
ignored, leaves the plugin's later import a cache hit.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass  # the plugin then writes no patch files and needs nothing here
