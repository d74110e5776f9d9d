import os

# One BLAS thread for the test run and the CLI processes it starts, set
# before numpy loads.  The acceptance criteria's _Budget limits count CPU
# seconds of every thread, and OpenBLAS workers that spin up after the host
# was idle read as a second of CPU time that the criterion did not spend.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from nodal_idn.moments import MomentEngine, sweep_windows  # noqa: E402
from reference import scenarios  # noqa: E402


@pytest.fixture(scope="session")
def graph_scenario():
    return scenarios.graph()


@pytest.fixture(scope="session")
def graph_datum(graph_scenario):
    return graph_scenario.datum()


@pytest.fixture(scope="session")
def charged_scenario():
    return scenarios.charged4()


@pytest.fixture(scope="session")
def charged_datum(charged_scenario):
    return charged_scenario.datum()


@pytest.fixture(scope="session")
def charged_sweep(charged_scenario, charged_datum):
    return sweep_windows(MomentEngine.from_datum(charged_datum),
                         charged_scenario.plan)


@pytest.fixture(scope="session")
def spurious_scenario():
    return scenarios.spurious()


@pytest.fixture(scope="session")
def spurious_datum(spurious_scenario):
    return spurious_scenario.datum()


@pytest.fixture(scope="session")
def spurious_sweep(spurious_scenario, spurious_datum):
    return sweep_windows(MomentEngine.from_datum(spurious_datum),
                         spurious_scenario.plan)


@pytest.fixture(scope="session")
def graph_sweep(graph_scenario, graph_datum):
    return sweep_windows(MomentEngine.from_datum(graph_datum),
                         graph_scenario.plan)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
