"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """List that grows by one entry, the factored matrix, per ``np.linalg.svd``
    call made during the test."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
