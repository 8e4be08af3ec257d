import sys
from collections import Counter

import pytest

from shortloc import linalg
from shortloc.presets import preset


@pytest.fixture
def matrix_builds(monkeypatch):
    """Each ``Matrix`` built, counted by the name of the calling function outside ``linalg``."""
    builds = Counter()

    def counted(self, *args, _original=linalg.Matrix.__init__, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == linalg.__file__:
            frame = frame.f_back
        builds[frame.f_code.co_name] += 1
        _original(self, *args, **kwargs)
    monkeypatch.setattr(linalg.Matrix, "__init__", counted)
    return builds


@pytest.fixture(scope="session")
def L2():
    return preset("L", e=2)


@pytest.fixture(scope="session")
def L3():
    return preset("L", e=3)


@pytest.fixture(scope="session")
def qext():
    return preset("qexterior")


@pytest.fixture(scope="session")
def lam0():
    return preset("lambda_c", c=0)


@pytest.fixture(scope="session")
def lam1():
    return preset("lambda_c", c=1)


@pytest.fixture(scope="session")
def conca32():
    return preset("ex15_1", e=3, a=2)
