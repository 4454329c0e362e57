from collections import Counter

import pytest

from callan import numbers
from callan.series import TruncatedSeries


@pytest.fixture(autouse=True)
def _cold_triangles():
    """Each test starts with no stored triangle rows, so a count of the
    rows computed does not depend on which tests ran before it."""
    numbers._triangles.clear()


@pytest.fixture
def kernel_calls(monkeypatch) -> Counter:
    """The TruncatedSeries.compose and .divide calls made from now on, by
    name; the test may clear() it between phases."""
    calls = Counter()
    for name in ("compose", "divide"):
        kernel = getattr(TruncatedSeries, name)

        def counted(self, operand, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(self, operand)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    return calls
