"""Fixtures shared by the study and command-line tests."""

import pytest

from fracbvp import study


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty in-memory reference cache for the duration of one test."""
    monkeypatch.setattr(study, "_memory_cache", {})
    return study._memory_cache
