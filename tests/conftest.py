from collections import Counter

import pytest

from callan import numbers
from callan.series import PowerTable, TruncatedSeries


@pytest.fixture(autouse=True)
def _cold_quotient_store():
    """Each test starts with no stored quotient, so a count of series
    kernel calls does not depend on which tests ran before it."""
    numbers._quotients.clear()


@pytest.fixture
def kernel_calls(monkeypatch) -> Counter:
    """The TruncatedSeries.compose and .divide calls and the PowerTable
    builds ("table") made from now on, by name; the test may clear() it
    between phases."""
    calls = Counter()
    for owner, attr, name in (
        (TruncatedSeries, "compose", "compose"),
        (TruncatedSeries, "divide", "divide"),
        (PowerTable, "__init__", "table"),
    ):
        kernel = getattr(owner, attr)

        def counted(self, operand, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(self, operand)

        monkeypatch.setattr(owner, attr, counted)
    return calls
