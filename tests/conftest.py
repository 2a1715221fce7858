import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from circlepattern import shapes

# property tests are reproducible and untimed; each sets its own max_examples
settings.register_profile("circlepattern", derandomize=True, database=None, deadline=None)
settings.load_profile("circlepattern")


@pytest.fixture(scope="session")
def tetra():
    return shapes.tetrahedron()


@pytest.fixture(scope="session")
def octa():
    return shapes.octahedron()


@pytest.fixture(scope="session")
def bipyr():
    return shapes.triangular_bipyramid()


@pytest.fixture(scope="session")
def icosa():
    return shapes.icosahedron()


@pytest.fixture(scope="session")
def shipped_small():
    return shapes.small_shipped()
