import time

import pytest

from trimobius import DivisibilityPoset, SequenceKind, mobius_one_var


@pytest.fixture(scope="session")
def tri_poset():
    """Triangular poset big enough for every non-acceptance test."""
    return DivisibilityPoset(SequenceKind.TRIANGULAR, 2000)


@pytest.fixture(scope="session")
def identity_poset():
    return DivisibilityPoset(SequenceKind.IDENTITY, 2000)


@pytest.fixture(scope="session")
def tri_poset_1e5():
    """Triangular poset at N = 100,000 for the bulk-builder pins."""
    return DivisibilityPoset(SequenceKind.TRIANGULAR, 100_000)


@pytest.fixture(scope="session")
def mu_tri_10k():
    """Shared N=10,000 vector; .elapsed carries the build time for the
    performance criterion."""
    poset = DivisibilityPoset(SequenceKind.TRIANGULAR, 10_000)
    start = time.perf_counter()
    vec = mobius_one_var(poset, 10_000)
    elapsed = time.perf_counter() - start
    return vec, elapsed
