"""Pytest setup shared by every test module.

When a hypothesis property fails, hypothesis imports
``hypothesis.extra._patching`` to write its failing-example patch, and
that imports ``libcst``, which raises a ``DeprecationWarning`` on import.
Under ``-W error`` the warning became an error inside pytest's report hook
and ended the session with an INTERNALERROR, naming no failing test.  The
module is imported once here with that warning silenced, so a failure is
reported like any other.  Without ``libcst`` (it is an optional hypothesis
extra) hypothesis writes no patch, the import fails and nothing is needed.
Warnings raised by sigmalcu are not affected.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
