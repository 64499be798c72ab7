import random
import time

import numpy as np
import pytest

from trimobius import DivisibilityPoset, SequenceKind, mobius_one_var
from trimobius.poset import PredecessorTable


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


def _random_ascending_table(seed, n=2000):
    """(rows, table): random ascending rows on 1..n, each row k >= 2 holding
    1, about half of them reading the row just before, so that no sequence
    bounds where a run may end."""
    rng = random.Random(seed)
    rows = [[], [], [1]]
    for k in range(3, n + 1):
        row = {1, rng.randrange(1, k)}
        if rng.random() < 0.5:
            row.add(k - 1)
        rows.append(sorted(row))
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([d for r in rows for d in r], dtype=np.int32)
    return rows, PredecessorTable(indptr, indices)


@pytest.fixture
def random_ascending_table():
    """The builder of random ascending tables, called with a seed."""
    return _random_ascending_table
