"""Fixtures shared across test modules."""

import time

import pytest

from stieltjes.catalog import run_catalog
from stieltjes.precision import DEFAULT_CONTEXT


class CatalogRun:
    """One run of the whole catalog: its report, its wall seconds and its
    outcomes by entry id."""

    def __init__(self, ctx):
        t0 = time.perf_counter()
        self.report = run_catalog(None, ctx=ctx)
        self.elapsed = time.perf_counter() - t0
        self.by_id = {o.entry_id: o for o in self.report.outcomes}


@pytest.fixture(scope="session")
def catalog_30():
    """The whole catalog at 30 digits, run once per session.  Tests that
    read entries share it; tests that exercise a filter or patch a
    function keep their own runs."""
    return CatalogRun(DEFAULT_CONTEXT)
