"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """List that grows by one entry per ``np.linalg.svd`` call made during the test."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
