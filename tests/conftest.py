"""Fixtures shared by the test modules."""

import functools
import os
import subprocess
import sys

import pytest

import omegacfl
from omegacfl.verify import run_suite


@pytest.fixture(scope="session")
def suite_results():
    """`run_suite(name, seed)`, memoized for the session: the acceptance
    criteria and the command-line tests read the same suite runs."""
    return functools.cache(run_suite)


@pytest.fixture(scope="session")
def fresh_python():
    """`fresh_python(code, *args)` runs `code` in a new interpreter that
    imports this checkout's omegacfl, and returns the completed process."""
    src = os.path.dirname(os.path.dirname(omegacfl.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
