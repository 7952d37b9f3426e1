import pytest

from quiver_cones import DimVector, ExtTable, make_d5hat, make_kronecker, make_line, make_sun


@pytest.fixture(scope="session")
def d5hat():
    return make_d5hat()


@pytest.fixture(scope="session")
def d5hat_table(d5hat):
    q, _ = d5hat
    return ExtTable(q)


@pytest.fixture(scope="session")
def sun31():
    q, invs = make_sun(3, 1)
    return q, invs


@pytest.fixture(scope="session")
def sun31_table(sun31):
    q, _ = sun31
    return ExtTable(q)


@pytest.fixture
def built_roots(monkeypatch):
    """The roots that ExtTable._build receives, in order, on every table of the test."""
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    return roots


@pytest.fixture(scope="session")
def a2():
    return make_line(2)


@pytest.fixture(scope="session")
def theta2():
    return make_kronecker(2)


def dv(q, *values):
    return DimVector(q, values)
