"""Shared fixtures."""

import pytest

from pintlab import heat, hierarchy, multigrid, quadrature, transfers

CACHED_MODULES = (heat, multigrid, transfers, quadrature, hierarchy)


@pytest.fixture
def cold_caches():
    """Empties every lru_cache of pintlab, so the test's first solve
    builds what a fresh process builds."""
    for module in CACHED_MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
