import time

import numpy as np
import pytest

from recurq import (Box, double_integrator,
                    reference_controller_double_integrator, run_episodes)

UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="session")
def di_system():
    return double_integrator()


@pytest.fixture(scope="session")
def di_controller():
    """Validated double-integrator controller for tau=2, eps up to 0.1."""
    return reference_controller_double_integrator(UNIT_SQUARE, tau=2.0, eps=0.1)


@pytest.fixture(scope="session")
def episode_bundle(di_system, di_controller):
    """The 20 seeded long episodes shared by the acceptance criteria.

    eps=0.1, tau=2, 200 steps at dt=1e-3, alphas split 7/7/6 across
    {0, 0.1, 0.5}; initial states drawn from the controller-validated
    interior of Q.  All 20 run in lockstep through one run_episodes call,
    which logs each episode float-identically to a run of it alone.
    """
    alphas = [0.0] * 7 + [0.1] * 7 + [0.5] * 6
    seeds = list(range(len(alphas)))
    x0s = [np.random.default_rng(seed).uniform(-0.85, 0.85, size=2)
           for seed in seeds]
    t0 = time.monotonic()
    logs = run_episodes(di_system, UNIT_SQUARE, di_controller, x0s,
                        eps=0.1, tau=2.0, alphas=alphas, steps=200, dt=1e-3,
                        seeds=seeds)
    elapsed = time.monotonic() - t0
    episodes = list(zip(alphas, seeds, logs))
    return {"episodes": episodes, "elapsed": elapsed}
