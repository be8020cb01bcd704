import pytest

from cyclojones import QSymbolCache


@pytest.fixture(scope="session")
def cache():
    """Shared symbol cache; correctness never depends on hits."""
    return QSymbolCache()


@pytest.fixture
def fractions_built(monkeypatch):
    """The LaurentFractions built while the test runs, one entry for each,
    named after the constructor that built it."""
    from cyclojones.laurent import LaurentFraction

    built, init, make = [], LaurentFraction.__init__, LaurentFraction._make.__func__

    def counting_init(self, num):
        built.append("__init__")
        init(self, num)

    def counting_make(cls, num, phi):
        built.append("_make")
        return make(cls, num, phi)

    monkeypatch.setattr(LaurentFraction, "__init__", counting_init)
    monkeypatch.setattr(LaurentFraction, "_make", classmethod(counting_make))
    return built
