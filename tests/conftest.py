import numpy as np
import pytest

from coupledwave import scheme


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


@pytest.fixture
def projected_start(monkeypatch):
    """Keep small systems off the dense start, whose exact solve leaves CG
    nothing to iterate and the projection no history: for tests of the CG
    failure paths and of the projected start."""
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 0)
