import pytest

from todalab.rootdata import LieType
from todalab.weyl import WeylGroup

# every finite type of rank 1-8
FINITE_TYPES = ([f"{s}{l}" for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for l in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"])


def word_str(word) -> str:
    """Test oracle for a word label, 1-based letters: "e", "121", or dotted
    ("1.10") once any letter is above 9."""
    if not word:
        return "e"
    if max(word) > 8:  # two-digit letters need a separator
        return ".".join(str(i + 1) for i in word)
    return "".join(str(i + 1) for i in word)


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
