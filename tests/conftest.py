import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

# A failing property test makes hypothesis import libcst to write its
# example patch, and importing libcst warns through mypy_extensions; under
# ``pytest -W error`` that ends the run in an INTERNALERROR in place of the
# falsifying example.  Imported here once with that warning ignored, the
# module is cached when hypothesis asks for it.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

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
