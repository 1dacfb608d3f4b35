"""Shared fixtures."""

import contextvars
import threading

import pytest

from pintlab import heat, multigrid, quadrature, transfers

CACHED_MODULES = (heat, multigrid, transfers, quadrature)


@pytest.fixture
def cold_caches():
    """Empties every lru_cache of pintlab, so the test's first solve
    builds what a fresh process builds."""
    for module in CACHED_MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _run_with_deadline(fn, *args, timeout=60.0, **kwargs):
    """Calls fn(*args, **kwargs) in a daemon thread, in a copy of the
    caller's context (so np.errstate holds there), and returns its result
    or raises its exception.  The test fails if the call has not returned
    within `timeout` seconds, so a deadlock cannot stall the suite."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(run,), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), \
        f"{fn.__name__} did not return within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def deadline():
    """`deadline(fn, *args, timeout=60, **kwargs)`: fn's result, or a test
    failure if it runs past the deadline (threaded executor runs)."""
    return _run_with_deadline
