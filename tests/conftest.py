"""Fixtures shared by the test modules."""

import pytest

from spikedfisher import sampling


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS copies on two threads for the test, their counts restored after it.

    Skips unless both thread controls are found and two threads are granted.
    """
    controls = sampling._BLAS_CONTROLS
    if len(controls) != 2:
        pytest.skip("needs the thread controls of both OpenBLAS copies")
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    try:
        if sampling._blas_threads() != 2:
            pytest.skip("OpenBLAS runs on fewer than two threads here")
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
