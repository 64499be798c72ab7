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
    DivisibilityPoset,
    MobiusMatrix,
    SequenceKind,
    ZetaMatrix,
    classical_mobius,
    invert_zeta,
    mobius_one_var,
    mobius_two_var,
    verify_inverse,
    zeta_matrix,
)
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
        eye = ZetaMatrix(
            n=4, rows=tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        )
        assert invert_zeta(eye).rows == eye.rows

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
        bad = ZetaMatrix(n=2, rows=((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            invert_zeta(bad)
        bad_diag = ZetaMatrix(n=2, rows=((2, 0), (1, 1)))
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


class TestVerifyInverse:
    def test_accepts_paper_pair(self):
        zeta = ZetaMatrix(n=10, rows=tuple(tuple(r) for r in ZETA_TRI_10))
        minv = MobiusMatrix(n=10, rows=tuple(tuple(r) for r in MOBIUS_TRI_10))
        assert verify_inverse(zeta, minv)

    def test_rejects_zeta_as_its_own_inverse(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 5)
        assert not verify_inverse(zeta, MobiusMatrix(n=5, rows=zeta.rows))

    def test_dimension_mismatch(self, tri_poset):
        z5 = zeta_matrix(tri_poset, 5)
        m4 = invert_zeta(zeta_matrix(tri_poset, 4))
        with pytest.raises(ValueError):
            verify_inverse(z5, m4)
