import random

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
    SequenceKind,
    ZetaMatrix,
    classical_mobius,
    invert_zeta,
    mobius_one_var,
    mobius_two_var,
    sequence_value,
    verify_inverse,
    zeta_matrix,
)
from trimobius import mobius as mobius_module
from trimobius.mobius import _guard_magnitude

TRI = SequenceKind.TRIANGULAR
IDENT = SequenceKind.IDENTITY


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
            assert vec.value(n) + sum(vec.value(d) for d in table[n]) == 0

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

    def test_overflow_guard_aborts(self):
        assert _guard_magnitude(2**63 - 1) == 2**63 - 1
        with pytest.raises(OverflowError):
            _guard_magnitude(2**63)


def _row_loop_reference(poset, n):
    """The original per-row recursion, kept as the reference for the blocks."""
    table = poset.predecessor_table(n)
    values = [0] * (n + 1)
    values[1] = 1
    for k in range(2, n + 1):
        values[k] = _guard_magnitude(-sum(values[d] for d in table[k]))
    return tuple(values)


class TestBlockedRecursion:
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_row_loop_2000(self, kind):
        poset = DivisibilityPoset(kind, 2000)
        for n in (1, 2, 3, 4, 5, 44, 2000):
            vec = mobius_one_var(poset, n)
            assert vec.values.dtype == np.int64
            assert vec.values.tolist() == list(_row_loop_reference(poset, n)), n
            assert all(type(v) is int for v in vec.terms())

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_block_end_is_the_largest_safe_end(self, kind):
        def value(i):
            return sequence_value(kind, i)

        for lo in [*range(2, 3000), 99_999, 10**9 + 7]:
            hi = mobius_module._block_end(kind, lo)
            assert value(hi) < 2 * value(lo) <= value(hi + 1), lo

    def test_overflow_raises_before_the_sums(self, tri_poset, monkeypatch):
        # with int64 shrunk to 63, the bound (largest |mu| so far times the
        # longest row of a block) passes 63 before n = 2000, not by n = 10
        monkeypatch.setattr(mobius_module, "I64_MAX", 63)
        with pytest.raises(OverflowError):
            mobius_one_var(tri_poset, 2000)
        assert mobius_one_var(tri_poset, 10).terms() == MU_TRI_10

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_gather_cap_2000(self, kind, monkeypatch):
        poset = DivisibilityPoset(kind, 2000)
        whole = mobius_one_var(poset, 2000).values
        # 7 entries per run: most runs hold a few rows, long rows run alone
        monkeypatch.setattr(mobius_module, "_GATHER_CAP", 7)
        for n in (2, 5, 44, 2000):
            assert np.array_equal(mobius_one_var(poset, n).values, whole[: n + 1]), n

    def test_gather_cap_1e5(self, tri_poset_1e5, monkeypatch):
        whole = mobius_one_var(tri_poset_1e5).values
        monkeypatch.setattr(mobius_module, "_GATHER_CAP", 7)
        assert np.array_equal(mobius_one_var(tri_poset_1e5).values, whole)


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

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_dense_inverse_60(self, kind):
        # rows[n-1][m-1] of the inverted zeta matrix is mu(m, n)
        poset = DivisibilityPoset(kind, 60)
        minv = invert_zeta(zeta_matrix(poset, 60))
        for n in range(1, 61):
            for m in range(1, 61):
                assert mobius_two_var(poset, m, n) == minv.rows[n - 1][m - 1], (m, n)


class TestZetaMatrix:
    def test_paper_ten_by_ten(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 10)
        assert [list(r) for r in zeta.rows] == ZETA_TRI_10

    def test_last_row(self, tri_poset):
        row = zeta_matrix(tri_poset, 10).rows[9]
        assert list(row) == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_one_by_one(self, identity_poset):
        assert zeta_matrix(identity_poset, 1).rows == ((1,),)

    def test_first_column_all_ones(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 60)
        assert all(row[0] == 1 for row in zeta.rows)

    def test_lower_unitriangular(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 40)
        for i, row in enumerate(zeta.rows):
            assert row[i] == 1
            assert all(v == 0 for v in row[i + 1 :])


class TestInversion:
    def test_paper_pair(self, tri_poset):
        minv = invert_zeta(zeta_matrix(tri_poset, 10))
        assert [list(r) for r in minv.rows] == MOBIUS_TRI_10

    def test_identity_matrix_is_self_inverse(self):
        eye = ZetaMatrix(np.eye(4, dtype=np.int64))
        assert np.array_equal(invert_zeta(eye).array, eye.array)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_first_column_equals_recursion_n200(self, kind):
        poset = DivisibilityPoset(kind, 200)
        minv = invert_zeta(zeta_matrix(poset, 200))
        assert minv.first_column() == mobius_one_var(poset, 200).terms()

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
        minv = invert_zeta(zeta_matrix(identity_poset, 100))
        for i in range(1, 101):
            for j in range(1, 101):
                entry = minv.rows[i - 1][j - 1]
                if i % j == 0:
                    assert entry == sieve.value(i // j), (i, j)
                else:
                    assert entry == 0, (i, j)


class TestMatrixArrays:
    def test_zeta_keeps_its_array(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 60)
        assert zeta.array.dtype == np.int8 and zeta.n == 60
        assert zeta.rows == tuple(map(tuple, zeta.array.tolist()))
        assert zeta == ZetaMatrix(zeta.array.astype(np.int64))

    def test_inverse_keeps_its_array(self, tri_poset):
        minv = invert_zeta(zeta_matrix(tri_poset, 60))
        assert minv.array.dtype == np.int64 and minv.n == 60
        assert minv.first_column() == minv.array[:, 0].tolist()
        assert all(type(v) is int for v in minv.first_column())
        assert minv == MobiusMatrix(minv.array.copy())
        assert minv != MobiusMatrix(zeta_matrix(tri_poset, 60).array)

    def test_caller_built_arrays(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 40)
        minv = invert_zeta(zeta)
        from_caller = ZetaMatrix(np.array(zeta.rows, dtype=np.int64))
        assert invert_zeta(from_caller) == minv
        assert verify_inverse(from_caller, MobiusMatrix(np.array(minv.rows)))

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
            row[j] = _guard_magnitude(-acc)
        out.append(tuple(row))
    return tuple(out)


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
            assert invert_zeta(zeta).rows == _forward_substitution_reference(zeta.rows)

    def test_rejects_one_flipped_entry(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 30)
        rows = [list(r) for r in invert_zeta(zeta).rows]
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
        exact = _forward_substitution_reference(zeta.rows)
        assert max(abs(v) for row in exact for v in row) > 64
        monkeypatch.setattr(mobius_module, "I64_MAX", 63)
        with pytest.raises(OverflowError):
            invert_zeta(zeta)
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
