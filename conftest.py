"""Test-harness set-up shared by tests/, src/ doctests and perfbench/tests."""

import pytest

from frobtorus import simplicity, survey


@pytest.fixture(autouse=True)
def cold_classify_cache():
    # classify, and a survey's encoded record tails, are memoized per
    # process: start each test from empty memos, so a test that watches the
    # classifier's inner calls sees them however the tests before it ran
    simplicity.classify.cache_clear()
    survey._record_tail.cache_clear()
