import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cantorapprox import MissingDigitSet, RatInterval


@pytest.fixture(scope="session")
def K():
    return MissingDigitSet.middle_thirds()


@pytest.fixture(scope="session")
def unit_window():
    return RatInterval.unit()
