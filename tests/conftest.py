import inspect

import numpy as np
import pytest

from tubereach import (StochasticLTVSystem, TargetTube, box_polytope,
                       build_pwa_quantile, chance)
from tubereach.sysmodel import make_integrator_chain, viability_tube


@pytest.fixture(scope="session")
def pwa():
    return build_pwa_quantile()


@pytest.fixture(scope="session")
def sys1d():
    """Scalar system x+ = x + u + w, u in [-0.1,0.1], w ~ N(0, 0.001)."""
    return StochasticLTVSystem.lti(
        np.array([[1.0]]), np.array([[1.0]]),
        np.zeros(1), 0.001 * np.eye(1),
        box_polytope(np.zeros(1), np.array([0.1])), 5)


@pytest.fixture(scope="session")
def tube1d():
    """Shrinking boxes [-0.6^k, 0.6^k], k = 0..5."""
    return TargetTube([box_polytope(np.zeros(1), np.array([0.6 ** k]))
                       for k in range(6)])


@pytest.fixture(scope="session")
def dp1d(sys1d, tube1d):
    from tubereach.reachalgo import dp_values
    return dp_values(sys1d, tube1d, 0.01, 0.01)


@pytest.fixture(scope="session")
def sys2d():
    return make_integrator_chain(2, 0.1, 10, 0.01, 0.1)


@pytest.fixture(scope="session")
def tube2d():
    return viability_tube(2, 1.0, 10)


@pytest.fixture
def line_lps(monkeypatch):
    """patch(solve) sends the LPs that chance solves in a chain of line
    searches, the ones RiskLP.lines solves, to solve(model); the anchors'
    LPs, solved by RiskLP.anchor, still go to HiGHS."""
    real, chain = chance.highs_solve, chance.RiskLP.lines.__code__

    def patch(solve):
        def route(model):
            caller = inspect.currentframe().f_back.f_code
            return solve(model) if caller is chain else real(model)
        monkeypatch.setattr(chance, "highs_solve", route)
    return patch


def pytest_terminal_summary(terminalreporter):
    # surface the one-line acceptance verdicts even under output capture
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
