import os
import time

import pytest

from axheights import local_heights
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


class CountedTerms:
    """A schedule of Tate series terms that counts the terms a loop takes:
    the term it stops before counts, so a loop that stops before term k
    has taken k, and one that runs through has taken them all."""

    def __init__(self, terms):
        self.terms, self.taken = terms, 0

    def __iter__(self):
        for term in self.terms:
            self.taken += 1
            yield term


@pytest.fixture
def counted_terms(monkeypatch):
    """counted_terms(name) puts a CountedTerms in place of the schedule
    local_heights.<name> for the rest of the test and returns it."""

    def patch(name: str) -> CountedTerms:
        counted = CountedTerms(getattr(local_heights, name))
        monkeypatch.setattr(local_heights, name, counted)
        return counted

    return patch
