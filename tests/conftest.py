import signal

import pytest

from fusionexp import GroupParams, find_irreducible, gen_group_params, make_field_params


TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than the limit instead of stalling the suite.

    A loop that never ends (a Lucas test without its square check, a cycle
    finder that never moves its saved point) then fails its test.  The
    suite's slowest test takes a few seconds.
    """
    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def g23():
    """Order-11 subgroup mod 23, generated by 2 (2 is a quadratic residue)."""
    return GroupParams(modulus=23, q=11, generator=2)


@pytest.fixture(scope="session")
def f121():
    """GF(11^2) with modulus X^2 + 1 (irreducible: 11 = 3 mod 4)."""
    return make_field_params(11, 2, [1, 0])


@pytest.fixture(scope="session")
def q11_fields():
    """GF(11^n) for n = 1..5; degrees >= 3 use a seeded irreducible search."""
    fields = {
        1: make_field_params(11, 1, [0]),
        2: make_field_params(11, 2, [1, 0]),
    }
    for n in (3, 4, 5):
        fields[n] = make_field_params(11, n, find_irreducible(11, n, seed=n))
    return fields


@pytest.fixture(scope="session")
def group64():
    return gen_group_params(64, seed=2024)


@pytest.fixture(scope="session")
def fields64(group64):
    q = group64.q
    fields = {1: make_field_params(q, 1, [0])}
    for n in (2, 3, 4, 5, 8):
        fields[n] = make_field_params(q, n, find_irreducible(q, n, seed=n))
    return fields


@pytest.fixture(scope="session")
def g7():
    """Order-3 subgroup mod 7, generated by 2."""
    return GroupParams(modulus=7, q=3, generator=2)


@pytest.fixture(scope="session")
def f27():
    """GF(3^3) with modulus X^3 + 2X + 1 (no roots mod 3)."""
    return make_field_params(3, 3, [1, 2, 0])
