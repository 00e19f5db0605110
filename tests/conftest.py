import pytest

from pairspec import catalog


@pytest.fixture(scope="session")
def pairs():
    return catalog.build_all()


@pytest.fixture(scope="session")
def sb(pairs):
    return pairs["super_boolean"]
