"""Shared fixtures."""

import os
from pathlib import Path

import numpy as np
import pytest
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

import staralg


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


@pytest.fixture
def pinned_env():
    """Environment for a child process whose output bytes are pinned.

    The last bits of a result depend on two choices made per CPU: OpenBLAS's
    kernel and numpy's SIMD dispatch (its ``np.log`` moves Box-Muller's
    normals).  The child runs one BLAS thread on OpenBLAS's baseline x86-64
    kernel (Prescott), with every dispatchable feature of this numpy build
    disabled, so numpy runs its baseline code paths.
    """
    return {
        **os.environ,
        "PYTHONPATH": str(Path(staralg.__file__).resolve().parent.parent),
        "OPENBLAS_NUM_THREADS": "1",
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__),
    }
