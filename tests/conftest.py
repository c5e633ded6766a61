"""Fixtures shared by the test modules."""

import functools

import pytest

from omegacfl.verify import run_suite


@pytest.fixture(scope="session")
def suite_results():
    """`run_suite(name, seed)`, memoized for the session: the acceptance
    criteria and the command-line tests read the same suite runs."""
    return functools.cache(run_suite)
