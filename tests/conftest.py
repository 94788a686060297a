import weakref

import numpy as np
import pytest

from gllab import gaussian_potential, quartic_potential


@pytest.fixture(scope="session")
def gaussian():
    return gaussian_potential()


@pytest.fixture(scope="session")
def quartic():
    # a=1, b=1: strictly convex, light tails, normalization nontrivial
    return quartic_potential(1.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def tilt_builds():
    """``record(pot)``: a list that gets the tilt of each CDF row ``pot``
    builds from then on, i.e. each miss of its tilt-CDF cache."""
    def record(pot):
        built = []

        class Recording(weakref.WeakValueDictionary):
            def setdefault(self, key, default=None):
                built.append(key)
                return super().setdefault(key, default)

        pot._tilt_tables = Recording(pot._tilt_tables)
        return built
    return record
