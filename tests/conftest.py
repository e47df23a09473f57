import numpy as np
import pytest

from gepup import UNIT_SQUARE, build_mesh, build_space
from gepup.operators import GepupOperators


@pytest.fixture(scope="session")
def space_q1_1el():
    return build_space(build_mesh(UNIT_SQUARE, (1, 1), 0), 1)


@pytest.fixture(scope="session")
def space_q3_8x8():
    return build_space(build_mesh(UNIT_SQUARE, (1, 1), 3), 3)


@pytest.fixture(scope="session")
def ops_q3_l3():
    """Operator chain on the 8x8 cubic space (shared; treat as read-only)."""
    return GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 3), 3)


@pytest.fixture(scope="session")
def ops_q3_l4():
    return GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 4), 3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
