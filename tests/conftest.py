import pytest

from _oracle import named


@pytest.fixture(scope="session")
def b4():
    return named("b4")


@pytest.fixture(scope="session")
def b8():
    return named("b8")


@pytest.fixture(scope="session")
def c3():
    return named("c3")
