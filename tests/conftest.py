"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from biasedwalk import exact


@pytest.fixture(autouse=True)
def _cold_log_law_memo():
    # log_mgf keeps the law of its last few (p, start, n); start every test
    # with none kept, so that no result depends on which tests ran before
    exact._log_law.cache_clear()
