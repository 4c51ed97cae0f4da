import numpy as np
import pytest

from mimobc import CorrelationModel, make_profile, sample_channel
from mimobc.validation import run_all_checks


@pytest.fixture(scope="session")
def check_results():
    """``run_all_checks(trials=300, seed=1)``, the checks of ``mimobc validate --trials 300 --seed 1``."""
    return run_all_checks(trials=300, seed=1)


@pytest.fixture(scope="session")
def checks(check_results):
    """The results of ``check_results`` by name."""
    return {result.name: result for result in check_results}


@pytest.fixture
def fig_setup():
    """Two users with two antennas each at a five-antenna base, near-far gains 1 and 2."""
    profile = make_profile(5, [2, 2])
    correlation = CorrelationModel.scalar(profile, [1.0, 2.0])
    return profile, correlation


@pytest.fixture
def seeded_channel():
    return sample_channel(make_profile(5, [2, 2]), seed=3)


@pytest.fixture
def block_inverses(monkeypatch):
    """Shapes of the stacks ``np.linalg.inv`` inverts during the test, in order."""
    shapes = []
    inv = np.linalg.inv

    def recording(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return shapes
