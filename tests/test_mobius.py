import random
import tracemalloc

import numpy as np
import pytest

from expected import (
    MAX_ABS_MU_TRI_1E5,
    MERTENS_TRI_1E5,
    MOBIUS_TRI_10,
    MU_IDENTITY_10,
    MU_TRI_10,
    ZETA_TRI_10,
)
from trimobius import (
    DENSE_CAP,
    DivisibilityPoset,
    MobiusMatrix,
    MobiusVector,
    SequenceKind,
    ZetaMatrix,
    classical_mobius,
    invert_zeta,
    mobius_one_var,
    mobius_two_var,
    verify_inverse,
    zeta_matrix,
)
from trimobius import mobius as mobius_module
from trimobius import poset as poset_module
from trimobius.mobius import _mu_from

TRI = SequenceKind.TRIANGULAR
IDENT = SequenceKind.IDENTITY


def _guard(value):
    """The references' own int64 check: raise rather than leave the range."""
    if not -(2**63) <= value < 2**63:
        raise OverflowError(f"{value} leaves int64")
    return value


class TestOneVar:
    def test_first_ten_triangular(self, tri_poset):
        assert mobius_one_var(tri_poset, 10).terms() == MU_TRI_10

    def test_minimum_element(self, tri_poset):
        vec = mobius_one_var(tri_poset, 1)
        assert vec.value(1) == 1

    def test_identity_kind_equals_classical(self, identity_poset):
        assert mobius_one_var(identity_poset, 10).terms() == MU_IDENTITY_10
        vec = mobius_one_var(identity_poset, 2000)
        assert vec.terms() == classical_mobius(2000).terms()

    def test_zero_sum_over_down_sets(self, tri_poset):
        # the defining recursion, restated: summing mu over everything at or
        # below n gives zero for every n >= 2
        vec = mobius_one_var(tri_poset, 2000)
        table = tri_poset.predecessor_table(2000)
        for n in range(2, 2001):
            assert vec.value(n) + sum(vec.value(d) for d in table.row(n).tolist()) == 0

    def test_derived_goldens_1e5(self, tri_poset_1e5):
        terms = mobius_one_var(tri_poset_1e5).terms()
        assert sum(terms) == MERTENS_TRI_1E5
        assert max(map(abs, terms)) == MAX_ABS_MU_TRI_1E5

    def test_vector_indexing(self, tri_poset):
        vec = mobius_one_var(tri_poset, 10)
        assert vec[1] == 1
        assert vec[10] == -1
        assert len(vec) == 10
        with pytest.raises(IndexError):
            vec.value(11)
        with pytest.raises(IndexError):
            vec.value(0)

    @pytest.mark.parametrize("values", [np.array([0]), np.zeros(0, dtype=np.int64)])
    def test_rejects_an_empty_vector(self, values):
        with pytest.raises(ValueError, match="empty Mobius vector"):
            MobiusVector(TRI, values)


class _TablePoset:
    """A stand-in poset that hands out one prebuilt table for every request."""

    def __init__(self, kind, table):
        self.kind, self.max_index, self.table = kind, len(table) - 1, table

    def predecessor_table(self, n):
        return self.table


def _row_loop_reference(poset, n):
    """The original per-row recursion, kept as the reference for the blocks."""
    table = poset.predecessor_table(n)
    values = [0] * (n + 1)
    values[1] = 1
    for k in range(2, n + 1):
        values[k] = _guard(-sum(values[d] for d in table.row(k).tolist()))
    return tuple(values)


class TestBlockedRecursion:
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_row_loop_2000(self, kind):
        poset = DivisibilityPoset(kind, 2000)
        for n in (1, 2, 3, 4, 5, 44, 2000):
            vec = mobius_one_var(poset, n)
            assert vec.values.dtype == np.int8  # |mu| <= 127 on these posets
            assert vec.values.tolist() == list(_row_loop_reference(poset, n)), n
            assert all(type(v) is int for v in vec.terms())

    def test_overflow_raises_before_the_sums(self, tri_poset, monkeypatch):
        # with int64 shrunk to 31, the bound (largest |mu| a run gathers
        # times its longest row) passes 31 before n = 2000 (it reaches 44),
        # not by n = 10 (at most 3).
        # The tables come first: the builder's own limit reads I64_MAX too.
        big, small = tri_poset.predecessor_table(2000), tri_poset.predecessor_table(10)
        monkeypatch.setattr(poset_module, "I64_MAX", 31)
        with pytest.raises(OverflowError):
            _mu_from(big, 1)
        assert _mu_from(small, 1)[1:].tolist() == MU_TRI_10
        # mu(2, .) runs the same recursion, so the same bound stops it
        assert tri_poset.leq(2, 2000)
        with pytest.raises(OverflowError):
            _mu_from(big, 2)
        assert _mu_from(small, 2)[3] == -1

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_gather_cap_2000(self, kind, monkeypatch):
        poset = DivisibilityPoset(kind, 2000)
        whole = mobius_one_var(poset, 2000).values
        # 7 entries per run: most runs hold a few rows, long rows run alone
        monkeypatch.setattr(poset_module, "_RUN_CAP", 7)
        for n in (2, 5, 44, 2000):
            assert np.array_equal(mobius_one_var(poset, n).values, whole[: n + 1]), n

    def test_gather_cap_1e5(self, tri_poset_1e5, monkeypatch):
        whole = mobius_one_var(tri_poset_1e5).values
        monkeypatch.setattr(poset_module, "_RUN_CAP", 7)
        assert np.array_equal(mobius_one_var(tri_poset_1e5).values, whole)

    @pytest.mark.memory
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_gather_is_freed_before_the_next_run(self, kind, monkeypatch):
        # beside mu, a run holds its gather of at most _RUN_CAP int64
        # entries and smaller per-row arrays (~1.6 caps in all); a gather kept
        # alive while the next one is built pushes the peak to ~2.5 caps.
        # The table is built before the window opens.
        poset = _TablePoset(kind, DivisibilityPoset(kind, 100_000).predecessor_table(100_000))
        cap = 1 << 14
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        tracemalloc.start()
        try:
            mobius_one_var(poset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * 100_001 <= 2 * 8 * cap

    @pytest.mark.parametrize("cap", [1, 7, 1 << 20])
    def test_runs_come_from_any_table(self, monkeypatch, cap, random_ascending_table):
        rows, table = random_ascending_table(cap)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        reference = [0, 1]
        for k in range(2, 2001):
            reference.append(-sum(reference[d] for d in rows[k]))
        assert mobius_one_var(_TablePoset(TRI, table)).values.tolist() == reference


def _table_reaching(target):
    """(mu, table): rows on 1..n whose recursion from 1 gives mu, Python ints,
    with mu(n) = target and no |mu| above |target|.

    Level i holds two elements of mu = 2**i, each with a one-entry row
    negating it, and the next level's pair reads both negations; row n then
    reads one element of level i per bit i of |target|, a negation for a
    positive target.
    """
    rows, mu = [[], []], [0, 1]

    def add(row):
        rows.append(sorted(row))
        mu.append(-sum(mu[d] for d in row))
        return len(rows) - 1

    pair = (1, add([add([1])]))  # mu(1) = 1 and mu(3) = -mu(2) = 1
    plus, minus = [], []
    for i in range(abs(target).bit_length()):
        if i:
            pair = (add(minus[-1]), add(minus[-1]))
        plus.append(pair[0])
        minus.append((add([pair[0]]), add([pair[1]])))
    bits = [i for i in range(abs(target).bit_length()) if abs(target) >> i & 1]
    add([minus[i][0] for i in bits] if target > 0 else [plus[i] for i in bits])
    assert mu[-1] == target and max(map(abs, mu)) == abs(target)
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([d for r in rows for d in r], dtype=np.int32)
    return mu, poset_module.PredecessorTable(indptr, indices)


class TestNarrowestType:
    @pytest.mark.parametrize(
        "target, dtype",
        [
            (127, np.int8), (-127, np.int8), (128, np.int16), (-128, np.int16),
            (32767, np.int16), (-32767, np.int16), (32768, np.int32), (-32768, np.int32),
            (2**31 - 1, np.int32), (-(2**31 - 1), np.int32),
            (2**31, np.int64), (-(2**31), np.int64),
        ],
    )
    @pytest.mark.parametrize("cap", [1, 1 << 14])
    def test_mu_widens_to_hold_its_largest_value(self, monkeypatch, target, dtype, cap):
        # +128 must not land in int8, where it wraps to -128
        mu, table = _table_reaching(target)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        values = _mu_from(table, 1)
        assert values.tolist() == mu
        assert values.dtype == dtype

    @pytest.mark.parametrize("cap", [1, 7, 1 << 14])
    @pytest.mark.parametrize("target", [2**62, -(2**62)])
    def test_mu_reaches_the_int64_limit(self, monkeypatch, target, cap):
        # the two rows of 2**62 each sum two entries of 2**61, and the last
        # row reads one entry: every bound is 2**62, however the rows run,
        # as a run's bound counts only the values it gathers
        mu, table = _table_reaching(target)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        values = _mu_from(table, 1)
        assert values.tolist() == mu
        assert values.dtype == np.int64

    @pytest.mark.parametrize("target, bound", [(2**62 - 1, 62 * 2**61), (2**63 - 1, 63 * 2**62)])
    def test_mu_past_the_int64_limit_raises(self, target, bound):
        # the last row reads 62 (63) entries, with |mu| up to 2**61 (2**62)
        # among them: a bound past 2**63 - 1, although the value itself fits
        _, table = _table_reaching(target)
        with pytest.raises(OverflowError, match=f"up to {bound} in magnitude"):
            _mu_from(table, 1)

    @pytest.mark.memory
    def test_mu_holds_one_byte_per_element(self):
        # int8 mu is 100,001 bytes; int64 took 800,008 before any run
        table = DivisibilityPoset(TRI, 100_000).predecessor_table(100_000)
        cap = poset_module._RUN_CAP
        tracemalloc.start()
        try:
            mu = _mu_from(table, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mu.dtype == np.int8
        assert peak <= 100_001 + 3 * 8 * cap  # and a run's int64 sums and gather


class TestTwoVar:
    def test_paper_entries(self, tri_poset):
        assert mobius_two_var(tri_poset, 2, 3) == -1
        assert mobius_two_var(tri_poset, 5, 9) == -1
        assert mobius_two_var(tri_poset, 2, 4) == 0  # unrelated

    def test_diagonal(self, tri_poset):
        for x in (1, 2, 44, 1999):
            assert mobius_two_var(tri_poset, x, x) == 1

    def test_matches_one_var_from_minimum(self, tri_poset):
        vec = mobius_one_var(tri_poset, 500)
        for n in range(1, 501):
            assert mobius_two_var(tri_poset, 1, n) == vec.value(n)

    def test_interval_zero_sum(self, tri_poset):
        # GM-style: for m strictly below n the interval sums to zero
        for m, n in [(2, 6), (5, 14), (1, 44), (3, 8)]:
            assert tri_poset.leq(m, n) and m != n
            interval = [
                z
                for z in range(m, n + 1)
                if tri_poset.leq(m, z) and tri_poset.leq(z, n)
            ]
            assert sum(mobius_two_var(tri_poset, m, z) for z in interval) == 0

    def test_out_of_range(self, tri_poset):
        with pytest.raises(IndexError):
            mobius_two_var(tri_poset, 0, 5)

    def test_builds_the_table_only_up_to_n(self, monkeypatch):
        poset = DivisibilityPoset(TRI, 10**6)
        real, asked = poset.predecessor_table, []

        def spy(n):
            asked.append(n)
            return real(n)

        monkeypatch.setattr(poset, "predecessor_table", spy)
        assert mobius_two_var(poset, 2, 3) == -1
        assert asked == [3]

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_dense_inverse_60(self, kind):
        # entry [n-1, m-1] of the inverted zeta matrix is mu(m, n)
        poset = DivisibilityPoset(kind, 60)
        rows = invert_zeta(zeta_matrix(poset, 60)).array.tolist()
        for n in range(1, 61):
            for m in range(1, 61):
                assert mobius_two_var(poset, m, n) == rows[n - 1][m - 1], (m, n)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    @pytest.mark.parametrize("cap", [1, 7, 1 << 14])
    def test_every_column_matches_dense_inverse_200(self, kind, cap, monkeypatch):
        # column m of the inverted zeta matrix is mu(m, .), zeros included;
        # the run holding m overwrites mu(m, m), which must be set back to 1
        poset = DivisibilityPoset(kind, 200)
        inverse = invert_zeta(zeta_matrix(poset, 200)).array
        table = poset.predecessor_table(200)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        for m in range(1, 201):
            column = _mu_from(table, m)
            assert column[0] == 0
            assert np.array_equal(column[1:], inverse[:, m - 1]), m


class TestZetaMatrix:
    def test_paper_ten_by_ten(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 10)
        assert zeta.array.tolist() == ZETA_TRI_10

    def test_last_row(self, tri_poset):
        row = zeta_matrix(tri_poset, 10).array[9].tolist()
        assert row == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_one_by_one(self, identity_poset):
        assert zeta_matrix(identity_poset, 1).array.tolist() == [[1]]

    def test_first_column_all_ones(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 60)
        assert zeta.array[:, 0].tolist() == [1] * 60

    def test_lower_unitriangular(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 40)
        for i, row in enumerate(zeta.array.tolist()):
            assert row[i] == 1
            assert all(v == 0 for v in row[i + 1 :])


class TestInversion:
    def test_paper_pair(self, tri_poset):
        minv = invert_zeta(zeta_matrix(tri_poset, 10))
        assert minv.array.tolist() == MOBIUS_TRI_10

    def test_identity_matrix_is_self_inverse(self):
        eye = ZetaMatrix(np.eye(4, dtype=np.int64))
        assert np.array_equal(invert_zeta(eye).array, eye.array)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_first_column_equals_recursion_n200(self, kind):
        poset = DivisibilityPoset(kind, 200)
        minv = invert_zeta(zeta_matrix(poset, 200))
        assert minv.array[:, 0].tolist() == mobius_one_var(poset, 200).terms()

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    @pytest.mark.parametrize("n", [10, 50, 100, 200])
    def test_product_is_identity(self, kind, n):
        poset = DivisibilityPoset(kind, n)
        zeta = zeta_matrix(poset, n)
        assert verify_inverse(zeta, invert_zeta(zeta))

    def test_rejects_non_unitriangular(self):
        bad = ZetaMatrix(np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            invert_zeta(bad)
        bad_diag = ZetaMatrix(np.array([[2, 0], [1, 1]]))
        with pytest.raises(ValueError):
            invert_zeta(bad_diag)

    def test_duality_with_classical_mobius(self, identity_poset):
        # rows[i][j] = mu(j+1, i+1) must be the classical mu of the quotient
        sieve = classical_mobius(100)
        rows = invert_zeta(zeta_matrix(identity_poset, 100)).array.tolist()
        for i in range(1, 101):
            for j in range(1, 101):
                entry = rows[i - 1][j - 1]
                if i % j == 0:
                    assert entry == sieve.value(i // j), (i, j)
                else:
                    assert entry == 0, (i, j)


class TestMatrixArrays:
    def test_zeta_keeps_its_array(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 60)
        assert zeta.array.dtype == np.int8 and zeta.n == 60
        assert zeta == ZetaMatrix(zeta.array.astype(np.int64))

    def test_inverse_keeps_its_array(self, tri_poset):
        minv = invert_zeta(zeta_matrix(tri_poset, 60))
        assert minv.array.dtype == np.int8 and minv.n == 60  # |mu| <= 2
        assert minv == MobiusMatrix(minv.array.copy())
        assert minv != MobiusMatrix(zeta_matrix(tri_poset, 60).array)

    def test_caller_built_arrays(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 40)
        minv = invert_zeta(zeta)
        from_caller = ZetaMatrix(np.array(zeta.array.tolist(), dtype=np.int64))
        assert invert_zeta(from_caller) == minv
        assert verify_inverse(from_caller, MobiusMatrix(np.array(minv.array.tolist())))

    def test_rejects_non_square_arrays(self):
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                ZetaMatrix(np.ones(shape, dtype=np.int64))
        with pytest.raises(ValueError, match="square"):
            MobiusMatrix(np.ones((3, 1), dtype=np.int64))


class TestVerifyInverse:
    def test_accepts_paper_pair(self):
        zeta = ZetaMatrix(np.array(ZETA_TRI_10))
        minv = MobiusMatrix(np.array(MOBIUS_TRI_10))
        assert verify_inverse(zeta, minv)

    def test_rejects_zeta_as_its_own_inverse(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 5)
        assert not verify_inverse(zeta, MobiusMatrix(zeta.array))

    def test_dimension_mismatch(self, tri_poset):
        z5 = zeta_matrix(tri_poset, 5)
        m4 = invert_zeta(zeta_matrix(tri_poset, 4))
        with pytest.raises(ValueError):
            verify_inverse(z5, m4)


def _forward_substitution_reference(rows):
    """The original pure-Python forward substitution, kept as the reference."""
    n = len(rows)
    ones_below = [[k for k in range(j + 1, n) if rows[k][j] == 1] for j in range(n)]
    out = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for j in range(i - 1, -1, -1):
            acc = 0
            for k in ones_below[j]:
                if k > i:
                    break
                acc += row[k]
            row[j] = _guard(-acc)
        out.append(row)
    return out


def _random_unitriangular(n, density, rng):
    return ZetaMatrix(
        np.array(
            [[int(j == i or (j < i and rng.random() < density)) for j in range(n)]
             for i in range(n)],
            dtype=np.int64,
        )
    )


class TestInt64Oracle:
    @pytest.mark.parametrize("density", [0.05, 0.2, 0.5])
    def test_matches_reference_on_random_matrices(self, density):
        rng = random.Random(int(density * 100))
        for n in (1, 2, 7, 40, 120):
            zeta = _random_unitriangular(n, density, rng)
            assert (invert_zeta(zeta).array.tolist()
                    == _forward_substitution_reference(zeta.array.tolist()))

    @pytest.mark.parametrize(
        "n, seed, dtype",
        [(40, 1, np.int8), (60, 1, np.int16), (80, 2, np.int16), (100, 1, np.int32),
         (150, 2, np.int32), (250, 1, np.int64)],
    )
    def test_inverse_widens_to_hold_its_values(self, n, seed, dtype):
        zeta = _random_unitriangular(n, 0.5, random.Random(seed))
        exact = _forward_substitution_reference(zeta.array.tolist())
        inverse = invert_zeta(zeta).array
        assert inverse.dtype == dtype
        assert inverse.dtype == poset_module.int_type(max(abs(v) for row in exact for v in row))
        assert inverse.tolist() == exact

    def test_rejects_one_flipped_entry(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 30)
        rows = invert_zeta(zeta).array.tolist()
        rng = random.Random(7)
        for i, j in [(0, 0), (29, 29), (29, 0), (0, 29), (14, 3)] + [
            (rng.randrange(30), rng.randrange(30)) for _ in range(20)
        ]:
            flipped = [list(r) for r in rows]
            flipped[i][j] ^= 1
            bad = MobiusMatrix(np.array(flipped))
            assert not verify_inverse(zeta, bad), (i, j)

    def test_overflow_raises_instead_of_wrapping(self, monkeypatch):
        zeta = _random_unitriangular(60, 0.5, random.Random(3))
        exact = _forward_substitution_reference(zeta.array.tolist())
        assert max(abs(v) for row in exact for v in row) > 64
        inverse = invert_zeta(zeta)
        monkeypatch.setattr(poset_module, "I64_MAX", 63)
        with pytest.raises(OverflowError):
            invert_zeta(zeta)
        # the product check takes the same bound on its column sums
        with pytest.raises(OverflowError):
            verify_inverse(zeta, inverse)
        # the substitution itself raises; the product check is not what stops it
        monkeypatch.setattr(mobius_module, "verify_inverse", lambda zeta, mobius: True)
        with pytest.raises(OverflowError):
            invert_zeta(zeta)

    def test_overflow_at_the_real_int64_limit(self):
        # the exact inverse reaches 2**66 in magnitude; row 369 is the first past int64
        with pytest.raises(OverflowError):
            invert_zeta(_random_unitriangular(400, 0.5, random.Random(5)))

    def test_first_offending_entry_in_row_major_order(self):
        def rows(*bad):
            r = [[int(i == j) for j in range(4)] for i in range(4)]
            for i, j, v in bad:
                r[i][j] = v
            return ZetaMatrix(np.array(r))

        cases = [
            (rows((1, 3, 1), (2, 2, 5)), r"above the diagonal at \(2, 4\)"),
            (rows((1, 1, 0), (1, 2, 1)), "diagonal entry at row 2 is 0"),
            (rows((0, 3, 2), (1, 1, 7)), r"above the diagonal at \(1, 4\)"),
            (rows((3, 3, -1)), "diagonal entry at row 4 is -1"),
        ]
        for zeta, message in cases:
            with pytest.raises(ValueError, match=message):
                invert_zeta(zeta)


class TestDenseCap:
    def test_zeta_matrix_refuses_beyond_cap(self, monkeypatch):
        poset = DivisibilityPoset(TRI, DENSE_CAP + 1)
        monkeypatch.setattr(
            DivisibilityPoset, "predecessor_table", lambda *a: pytest.fail("allocated")
        )
        with pytest.raises(ValueError, match=f"DENSE_CAP = {DENSE_CAP}"):
            zeta_matrix(poset, DENSE_CAP + 1)
