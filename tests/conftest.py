import pytest

from upto import Lts
from upto.gallery import build_T


@pytest.fixture
def t2():
    return build_T(2)


@pytest.fixture
def loop_vs_cycle():
    # one a-loop state next to a two-state a-cycle; all states bisimilar
    return Lts(["p", "q1", "q2"], [(0, "a", 0), (1, "a", 2), (2, "a", 1)])


@pytest.fixture
def deadlock_vs_loop():
    return Lts(["d", "l"], [(1, "a", 1)])


@pytest.fixture
def two_selfloops():
    return Lts(["u", "v"], [(0, "a", 0), (1, "a", 1)])
