import os
import sys

import pytest

import emcurve.localsolve as localsolve

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def fresh_local_caches():
    """Empty localsolve's kept images and first points before and after the
    test, so nothing built under a faked internal is served to another."""

    def clear():
        localsolve.local_image.cache_clear()
        localsolve._first_points.cache_clear()

    clear()
    yield
    clear()
