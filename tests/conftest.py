import os
import time

import pytest

from axheights.bounds import sweep

ACCEPT_AMIN, ACCEPT_AMAX, ACCEPT_BOUND = -200, 200, 100


def run_acceptance_sweep():
    """The acceptance sweep, timed in report.duration_seconds."""
    workers = min(os.cpu_count() or 1, 8)
    started = time.time()
    report = sweep(ACCEPT_AMIN, ACCEPT_AMAX, ACCEPT_BOUND, workers=workers)
    report.duration_seconds = time.time() - started
    return report


@pytest.fixture(scope="session")
def acceptance_sweep():
    """The full acceptance sweep, shared by every criterion that needs it."""
    return run_acceptance_sweep()
