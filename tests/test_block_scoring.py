"""Kernel-option contract left behind by the removed numpy block scorer.

``kernel="numpy"`` used to select a block-vectorized merge scorer.  That
backend is gone, so the name is now just another unknown kernel: asking
for it (with or without numpy installed) must fail fast with a clear
error naming the value, exactly as any other unknown kernel does.
"""

import random

import pytest

from repro.core.build import TSBuildOptions, TreeSketchBuilder
from repro.core.stable import build_stable
from tests.conftest import make_random_tree


class TestFallbackContract:
    """Unknown kernels, ``"numpy"`` included, are rejected up front."""

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        rng = random.Random(1)
        stable = build_stable(make_random_tree(rng, 100))
        with pytest.raises(ValueError, match="numpy"):
            TreeSketchBuilder(stable, TSBuildOptions(kernel="numpy"))

    def test_unknown_kernel_rejected(self):
        rng = random.Random(1)
        stable = build_stable(make_random_tree(rng, 50))
        with pytest.raises(ValueError, match="simd"):
            TreeSketchBuilder(stable, TSBuildOptions(kernel="simd"))
