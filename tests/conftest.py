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


@pytest.fixture
def qr_calls(monkeypatch):
    """List that grows by one entry, the factored matrix, per ``np.linalg.qr``
    call made during the test."""
    calls = []
    real_qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(a)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls
