import pytest

from schuprod import cartan_matrix_by_name, schubert, weyl


@pytest.fixture
def walks(monkeypatch):
    """One list per walk of W/W' that built a level (a weyl.coset_levels
    generator advanced at least once, under either name), holding the size
    of each level it built: its length counts the walks, its sum of sums
    the representatives built."""
    started = []
    original = weyl.coset_levels

    def counting(*args, **kwargs):
        sizes = []
        for level in original(*args, **kwargs):
            if not sizes:
                started.append(sizes)
            sizes.append(len(level))
            yield level

    monkeypatch.setattr(weyl, "coset_levels", counting)
    monkeypatch.setattr(schubert, "coset_levels", counting)
    return started


@pytest.fixture(scope="session")
def g2():
    return cartan_matrix_by_name("G2")


@pytest.fixture(scope="session")
def a1():
    return cartan_matrix_by_name("A1")


@pytest.fixture(scope="session")
def a2():
    return cartan_matrix_by_name("A2")


@pytest.fixture(scope="session")
def a3():
    return cartan_matrix_by_name("A3")


@pytest.fixture(scope="session")
def b2():
    return cartan_matrix_by_name("B2")
