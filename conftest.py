"""Test-harness set-up shared by tests/, src/ doctests and perfbench/tests."""

import pytest

from frobtorus import simplicity


@pytest.fixture(autouse=True)
def cold_classify_cache():
    # classify is memoized per process: start each test from an empty memo,
    # so a test that watches the classifier's inner calls sees them however
    # the tests before it ran
    simplicity.classify.cache_clear()
