"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro.core.params import AEMParams
from repro.engine import ExperimentConfig
from repro.engine.cache import CACHE_DIR_ENV
from repro.experiments import run_experiment
from repro.machine.aem import AEMMachine

pytest_plugins = ("repro.sanitize.pytest_plugin",)


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_dir(tmp_path_factory):
    """Point the measurement cache at a per-session temp dir.

    Keeps cache traffic from CLI/engine tests out of the working tree and
    guarantees no test run is ever served entries written by an earlier
    checkout of the code.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def quick_experiment():
    """``quick_experiment(eid)``: experiment ``eid``'s full-machine quick run.

    Made once per session and shared: ``test_experiments.py`` asserts it
    passes and ``test_counting_mode.py`` compares a counting run with it,
    so the suite runs each experiment once per machine mode.
    """
    return functools.cache(
        lambda eid: run_experiment(eid, ExperimentConfig(budget="quick"))
    )


@pytest.fixture
def p_small() -> AEMParams:
    """A small AEM: M=64, B=8, omega=4 — merge fan-out 32."""
    return AEMParams(M=64, B=8, omega=4)


@pytest.fixture
def p_symmetric() -> AEMParams:
    """The symmetric EM special case (omega = 1)."""
    return AEMParams(M=64, B=8, omega=1)


@pytest.fixture
def p_extreme_omega() -> AEMParams:
    """omega far beyond B — the regime the paper's mergesort unlocks."""
    return AEMParams(M=64, B=8, omega=64)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def machine(p_small) -> AEMMachine:
    return AEMMachine.for_algorithm(p_small)


def make_machine(params: AEMParams, **kw) -> AEMMachine:
    return AEMMachine.for_algorithm(params, **kw)
