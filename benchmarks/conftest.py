"""Shared configuration for the paper-reproduction benchmarks.

Environment knobs
-----------------
``REPRO_SCALE``   suite scale: ``tiny`` (default), ``bench``, ``full``;
``REPRO_EFFORT``  annealing effort: ``fast`` (default), ``normal``,
                  ``high``;
``REPRO_SEED``    master seed (default 1).

The full three-flow suite (Tables II/III) runs once per session and is
shared by the benches that need it.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import Effort
from repro.api import RunOptions, run_suite

SCALE = os.environ.get("REPRO_SCALE", "tiny")
EFFORT = Effort(os.environ.get("REPRO_EFFORT", "fast"))
SEED = int(os.environ.get("REPRO_SEED", "1"))
OPTIONS = RunOptions(seed=SEED, effort=EFFORT)


@pytest.fixture(scope="session")
def suite_result():
    """The three-flow comparison over all eight circuits."""
    return run_suite(scale=SCALE, options=OPTIONS)


@pytest.fixture(scope="session")
def artifacts_dir():
    path = os.path.join(os.path.dirname(__file__), "artifacts")
    os.makedirs(path, exist_ok=True)
    return path


def pedantic(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
