from fractions import Fraction

import pytest

from qc import EXT_RATIONAL, INF, VSpace, capped_chain


@pytest.fixture(scope="session")
def Q3():
    return capped_chain(3, label="Q3")


@pytest.fixture(scope="session")
def Q1():
    return capped_chain(1, label="Q1")


@pytest.fixture(scope="session")
def chain4():
    return capped_chain(4, label="chain4")


@pytest.fixture(scope="session")
def diamond_tables():
    """Lattice {0, a, b, inf} with a,b incomparable and addition = join."""
    names = ["0", "a", "b", "inf"]
    leq = [
        [True, True, True, True],
        [False, True, False, True],
        [False, False, True, True],
        [False, False, False, True],
    ]
    join = [
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ]
    return names, leq, join


@pytest.fixture(scope="session")
def saturated_diamond_tables():
    """Lattice 0 < a, b < T with a, b incomparable; any two nonzero sum to T.

    Meet-distributivity fails at x = a, S = {a, b}: a + (a∧b) = a + 0 = a,
    while (a+a)∧(a+b) = T.  b is listed last, so a check that skips the
    pairs holding the last element misses the failure.
    """
    names = ["0", "a", "T", "b"]
    less = {(0, 1), (0, 2), (0, 3), (1, 2), (3, 2)}
    leq = [[i == j or (i, j) in less for j in range(4)] for i in range(4)]
    add = [[j if i == 0 else (i if j == 0 else 2) for j in range(4)] for i in range(4)]
    return names, leq, add


@pytest.fixture
def x2a():
    return VSpace(EXT_RATIONAL, ["a", "b"], [[0, 1], [2, 0]])


@pytest.fixture
def x2n():
    return VSpace(EXT_RATIONAL, ["a", "b"], [[0, 0], [1, 0]])


@pytest.fixture
def x2s():
    return VSpace(EXT_RATIONAL, ["a", "b"], [[0, 1], [1, 0]])


@pytest.fixture
def x3z():
    return VSpace(
        EXT_RATIONAL,
        ["a", "b", "c"],
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    )


@pytest.fixture
def xq1(Q1):
    return VSpace(Q1, ["p", "q"], [[0, 0], [0, 0]])


@pytest.fixture
def half():
    return Fraction(1, 2)


@pytest.fixture(scope="session")
def inf():
    return INF


@pytest.fixture(scope="session")
def pinched():
    """Non-chain value quantale: 0 < e < a,b < T with a,b incomparable.

    Addition collapses any two nonzero elements to the top.  All four
    axioms hold (the meet of the incomparable positives is e, still well
    above 0), so this exercises every code path that chains never reach:
    incomparable test values, rank ties, meets that are not minimums.
    """
    from qc import FiniteQuantale

    names = ["0", "e", "a", "b", "T"]
    less = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
    leq = [[i == j or (i, j) in less for j in range(5)] for i in range(5)]
    add = [
        [j if i == 0 else (i if j == 0 else 4) for j in range(5)] for i in range(5)
    ]
    return FiniteQuantale(names, leq, add, label="pinched")
