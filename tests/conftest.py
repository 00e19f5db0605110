import pytest

from pairspec import catalog


@pytest.fixture(scope="session")
def pairs():
    return {name: build() for name, build in catalog.CATALOG_BUILDERS.items()}


@pytest.fixture(scope="session")
def sb(pairs):
    return pairs["super_boolean"]
