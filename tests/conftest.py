import numpy as np
import pytest

from nodal_idn import scenarios
from nodal_idn.moments import MomentEngine, sweep_windows


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
