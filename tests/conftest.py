import pytest

from todalab.rootdata import LieType
from todalab.weyl import WeylGroup


@pytest.fixture(scope="session")
def group():
    """Shared Weyl group factory; generation is deterministic and cached."""
    built = {}

    def get(name: str) -> WeylGroup:
        if name not in built:
            built[name] = WeylGroup.generate(LieType.parse(name))
        return built[name]

    return get


@pytest.fixture(scope="session")
def full_results():
    """One full-scope run of the verification matrix, shared by the
    acceptance tests."""
    from todalab import verify

    return {r.number: r for r in verify.run("full")}
