"""Optional numpy: one place to gate every vectorized code path.

Every consumer of numpy in this codebase (the array-scoring kernel's
diagnostics, batch selectivity estimation) goes through :func:`get_numpy`
so that

* environments without numpy degrade to the pure-python fallbacks
  automatically, and
* the fallbacks stay testable on machines that *do* have numpy: setting
  ``REPRO_NO_NUMPY=1`` makes :func:`get_numpy` report numpy as absent,
  which is how the CI matrix proves the fallback paths without
  uninstalling anything.

The environment variable is read on every call (not cached at import
time) so tests can flip it with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via get_numpy()
    import numpy as _numpy
except ImportError:  # pragma: no cover - container always has numpy
    _numpy = None


def get_numpy():
    """The numpy module, or None when absent or disabled.

    ``REPRO_NO_NUMPY`` (any non-empty value) simulates an environment
    without numpy; see docs/PERFORMANCE.md.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    return _numpy


def have_numpy() -> bool:
    return get_numpy() is not None

