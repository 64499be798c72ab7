import hashlib
import random
import tracemalloc
import weakref
from math import isqrt

import numpy as np
import pytest

from expected import HASSE_TRI_20, PRED_TABLE_TRI
from trimobius import poset as poset_module
from trimobius.poset import I64_MAX, int_type, magnitude, sequence_values
from trimobius import (
    MAX_TRIANGULAR_INDEX,
    DivisibilityPoset,
    SequenceKind,
    mobius_one_var,
    sequence_value,
    triangular_index,
    zeta_matrix,
)
from trimobius.mobius import _mu_from

TRI = SequenceKind.TRIANGULAR
IDENT = SequenceKind.IDENTITY


def _same_table(a, b):
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def _build(kind, n):
    """The table on exactly 1..n, fresh from the builder."""
    return DivisibilityPoset(kind, n).predecessor_table(n)


def _rows(table):
    return [row.tolist() for row in table]


def _multiples_sieve(n):
    """The original identity builder, kept as the reference: d below 2d, 3d, ..."""
    tbl = [[] for _ in range(n + 1)]
    for d in range(1, n // 2 + 1):
        for m in range(2 * d, n + 1, d):
            tbl[m].append(d)
    return tbl


class TestSequenceValue:
    @pytest.mark.parametrize(
        "kind,i,expected",
        [
            (TRI, 1, 1),
            (TRI, 2, 3),
            (TRI, 4, 10),
            (TRI, 19, 190),
            (IDENT, 7, 7),
            (IDENT, 1, 1),
        ],
    )
    def test_values(self, kind, i, expected):
        assert sequence_value(kind, i) == expected

    def test_triangular_formula(self):
        for i in range(1, 200):
            assert sequence_value(TRI, i) == i * (i + 1) // 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sequence_value(TRI, 0)
        with pytest.raises(ValueError):
            sequence_value(IDENT, -3)

    def test_cap_is_tight(self):
        # largest index whose triangular value still fits 64 unsigned bits
        assert sequence_value(TRI, MAX_TRIANGULAR_INDEX) <= 2**64 - 1
        with pytest.raises(OverflowError):
            sequence_value(TRI, MAX_TRIANGULAR_INDEX + 1)

    def test_poset_checks_cap_at_construction(self):
        with pytest.raises(OverflowError):
            DivisibilityPoset(TRI, MAX_TRIANGULAR_INDEX + 1)
        with pytest.raises(ValueError):
            DivisibilityPoset(TRI, 0)


class TestSequenceValues:
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_sequence_value(self, kind):
        # past k = 2**32 the product k(k+1) leaves uint64; its halves do not
        rng = random.Random(7)
        ks = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, MAX_TRIANGULAR_INDEX - 1,
              MAX_TRIANGULAR_INDEX]
        ks += [rng.randrange(1, MAX_TRIANGULAR_INDEX + 1) for _ in range(2000)]
        values = sequence_values(kind, np.array(ks, dtype=np.uint64))
        assert values.dtype == np.uint64
        assert values.tolist() == [sequence_value(kind, k) for k in ks]


class TestExactIntegers:
    @pytest.mark.parametrize(
        "bound, dtype",
        [(0, np.int8), (127, np.int8), (128, np.int16), (2**31 - 1, np.int32),
         (2**31, np.int64), (I64_MAX, np.int64)],
    )
    def test_int_type_holds_plus_and_minus_bound(self, bound, dtype):
        assert int_type(bound) == dtype

    @pytest.mark.parametrize("bound", [I64_MAX + 1, 2**64, 10**30])
    def test_int_type_refuses_past_int64(self, bound):
        # an object array would hold it, but no exact sum is taken in one
        with pytest.raises(OverflowError, match=f"up to {bound} in magnitude"):
            int_type(bound)

    @pytest.mark.parametrize(
        "values, dtype, expected",
        [
            ([-128, 127], np.int8, 128),
            ([5, -3], np.int8, 5),
            ([-(2**63), 2**63 - 1], np.int64, 2**63),
            ([2**64 - 1, 2**64 - 2], np.uint64, 2**64 - 1),
            ([2**63 + 1, 0], np.uint64, 2**63 + 1),
            ([], np.int64, 0),
        ],
    )
    def test_magnitude_is_exact(self, values, dtype, expected):
        got = magnitude(np.array(values, dtype=dtype))
        assert type(got) is int and got == expected


class TestTriangularIndex:
    def test_roundtrip(self):
        for i in range(1, 2000):
            assert triangular_index(i * (i + 1) // 2) == i

    def test_non_triangular(self):
        triangulars = {i * (i + 1) // 2 for i in range(1, 100)}
        for v in range(1, 2000):
            if v not in triangulars:
                assert triangular_index(v) == 0


class TestLeq:
    def test_paper_relations(self, tri_poset):
        assert tri_poset.leq(4, 19)  # 10 divides 190
        assert not tri_poset.leq(2, 4)  # 3 does not divide 10

    def test_reflexive(self, tri_poset):
        for n in (1, 7, 500, 2000):
            assert tri_poset.leq(n, n)

    def test_out_of_range(self, tri_poset):
        with pytest.raises(IndexError):
            tri_poset.leq(0, 5)
        with pytest.raises(IndexError):
            tri_poset.leq(5, 2001)

    def test_relation_forms_agree(self, tri_poset):
        # T(i) | T(j) iff i(i+1) | j(j+1): same relation, doubled magnitudes
        for i in range(1, 60):
            for j in range(1, 60):
                direct = tri_poset.leq(i, j)
                doubled = (j * (j + 1)) % (i * (i + 1)) == 0
                assert direct == doubled, (i, j)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_poset_axioms_exhaustive_200(self, kind):
        poset = DivisibilityPoset(kind, 200)
        below = [set()] + [
            {j for j in range(1, 201) if poset.leq(i, j)} for i in range(1, 201)
        ]
        for i in range(1, 201):
            assert i in below[i]  # reflexive
            for j in below[i]:
                if i in below[j]:
                    assert i == j  # antisymmetric
                for k in below[j]:
                    assert k in below[i]  # transitive

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_smaller_divides_only_upward(self, kind):
        # related distinct pairs always go index-upward
        poset = DivisibilityPoset(kind, 2000)
        table = poset.predecessor_table(2000)
        for n in range(1, 2001):
            assert all(1 <= d < n for d in table.row(n).tolist())


class TestStrictPredecessors:
    def test_paper_rows(self, tri_poset):
        table = tri_poset.predecessor_table(2000)
        assert table.row(8).tolist() == [1, 2, 3]
        assert table.row(9).tolist() == [1, 2, 5]

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_minimum_has_none(self, kind):
        assert DivisibilityPoset(kind, 10).predecessor_table(10).row(1).tolist() == []

    def test_identity_gives_proper_divisors(self, identity_poset):
        table = identity_poset.predecessor_table(2000)
        assert table.row(12).tolist() == [1, 2, 3, 4, 6]
        assert table.row(7).tolist() == [1]

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_implementations_agree_to_2000(self, kind):
        # the trial loop is the oracle; the bulk table must reproduce it exactly
        poset = DivisibilityPoset(kind, 2000)
        table = poset.predecessor_table(2000)
        for n in range(1, 2001):
            assert table.row(n).tolist() == poset.strict_predecessors_trial(n), n


class TestTableGrowth:
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_first_build_is_exact(self, kind):
        assert len(DivisibilityPoset(kind, 500).predecessor_table(37)) == 38

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_smaller_request_after_a_larger_one_is_exact(self, kind):
        # each call builds exactly 1..n, whatever was asked before
        poset = DivisibilityPoset(kind, 500)
        assert len(poset.predecessor_table(500)) == 501
        table = poset.predecessor_table(37)
        assert len(table) == 38
        assert table.indptr[-1] == len(table.indices)
        assert _same_table(table, _build(kind, 37))


class TestPredecessorTable:
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_csr_arrays_and_row_view(self, kind):
        table = DivisibilityPoset(kind, 300).predecessor_table(300)
        assert table.indptr.dtype == np.int32 and len(table.indptr) == 302
        assert table.indices.dtype == np.int32
        assert len(table) == 301
        rows = [table.row(k) for k in range(301)]
        assert all(np.shares_memory(row, table.indices) for row in rows if len(row))
        assert all(row.dtype == np.int32 for row in rows)
        assert _rows(table) == [row.tolist() for row in rows]
        for k in (-1, 301):
            with pytest.raises(IndexError):
                table.row(k)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_pointers_stay_int32_while_the_entry_count_fits(self, kind, monkeypatch):
        table = _build(kind, 300)
        top = len(table.indices)
        monkeypatch.setattr(poset_module, "I32_MAX", top)
        assert _build(kind, 300).indptr.dtype == np.int32
        monkeypatch.setattr(poset_module, "I32_MAX", top - 1)
        wide = _build(kind, 300)
        assert wide.indptr.dtype == np.int64 and _same_table(wide, table)

    @pytest.mark.parametrize("cap", [1, 7, 1 << 14])
    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_int64_pointers_give_what_int32_pointers_give(self, kind, cap, monkeypatch):
        n = 1000
        poset = DivisibilityPoset(kind, n)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)

        def results():
            table = poset.predecessor_table(n)
            mus = [_mu_from(table, m) for m in (1, 2, 6, 10)]
            return table, mus, zeta_matrix(poset, n), poset.hasse_edges(n)

        narrow = results()
        # above n, so the identity builder still runs, but below the entry
        # count, so the pointers widen
        monkeypatch.setattr(poset_module, "I32_MAX", n + 1)
        wide = results()
        assert narrow[0].indptr.dtype == np.int32 and wide[0].indptr.dtype == np.int64
        assert _same_table(narrow[0], wide[0])
        for a, b in zip(narrow[1], wide[1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert narrow[2] == wide[2] and narrow[3] == wide[3]

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_rows_are_read_only(self, kind):
        # the rows are views into the table: a write through one would
        # change every later result computed from that table
        poset = DivisibilityPoset(kind, 300)
        expected = mobius_one_var(poset, 300).values.copy()
        table = poset.predecessor_table(300)
        for view in (table.row(12), list(table)[12], table.indptr, table.indices):
            with pytest.raises(ValueError):
                view[0] = 7
        assert np.array_equal(mobius_one_var(poset, 300).values, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097, 9000])
    def test_identity_matches_multiples_sieve(self, n):
        assert _rows(_build(IDENT, n)) == _multiples_sieve(n)

    def test_identity_does_not_depend_on_block_size(self, monkeypatch):
        monkeypatch.setattr(poset_module, "_K_BLOCK", 7)
        assert _rows(_build(IDENT, 3000)) == _multiples_sieve(3000)

    def test_identity_rejects_more_rows_than_int32_indices(self, monkeypatch):
        monkeypatch.setattr(poset_module, "_window_divisors", lambda *a: pytest.fail("built"))
        with pytest.raises(OverflowError):
            DivisibilityPoset(IDENT, 2**31).predecessor_table(2**31)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_predecessor_values_at_most_half_1e5(self, kind, tri_poset_1e5):
        # what the blocked Mobius recursion relies on: value(k)/value(d) is an
        # integer >= 2, so 2*T(d) <= T(k) (identity: 2d <= k) on every entry
        poset = tri_poset_1e5 if kind is TRI else DivisibilityPoset(IDENT, 100_000)
        table = poset.predecessor_table(100_000)
        k = np.repeat(np.arange(len(table), dtype=np.int64), np.diff(table.indptr))
        d = table.indices.astype(np.int64)
        if kind is TRI:
            k, d = k * (k + 1) // 2, d * (d + 1) // 2
        assert len(d) > 0 and (2 * d <= k).all() and (k % d == 0).all()


class TestRuns:
    @pytest.mark.parametrize("cap", [1, 7, 1 << 14, 1 << 20])
    @pytest.mark.parametrize("source", ["random", "triangular 1e5"])
    def test_runs_are_maximal_and_read_no_later_row(
        self, source, cap, random_ascending_table, monkeypatch
    ):
        if source == "random":
            table = random_ascending_table(cap)[1]
        else:
            table = DivisibilityPoset(TRI, 100_000).predecessor_table(100_000)
        monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
        n = len(table) - 1
        ptr = table.indptr.tolist()
        last = [row[-1] if row else 0 for row in _rows(table)]
        his = [1]
        for lo, hi, entries, offsets in table.runs():
            assert lo == his[-1] + 1 and lo <= hi <= n  # the runs tile 2..n in order
            assert (offsets + ptr[lo]).tolist() == ptr[lo : hi + 2]
            assert np.array_equal(entries, table.indices[ptr[lo] : ptr[hi + 1]])
            assert np.shares_memory(entries, table.indices) or not len(entries)
            assert ptr[hi + 1] - ptr[lo] <= cap or hi == lo
            assert max(last[lo : hi + 1]) < lo
            # maximal: row hi + 1 would read lo or pass the cap
            assert hi == n or last[hi + 1] >= lo or ptr[hi + 2] - ptr[lo] > cap
            his.append(hi)
        assert his[-1] == n


class TestTriangularBuilder:
    # largest n with 8*T(n)+1 <= 2**63-1, the builder's exact int64 range
    INT64_TOP = 1_518_500_249

    @pytest.mark.parametrize("n", sorted(PRED_TABLE_TRI))
    def test_matches_original_builder_pins(self, n, tri_poset_1e5):
        # entry count and digest are derived from the original builder, not the paper
        if n == tri_poset_1e5.max_index:
            table = tri_poset_1e5.predecessor_table(n)
        else:
            table = DivisibilityPoset(TRI, n).predecessor_table(n)
        entries, digest = PRED_TABLE_TRI[n]
        assert len(table) == n + 1
        assert sum(map(len, table)) == entries
        text = " ".join(",".join(map(str, row)) for row in table)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_table_does_not_depend_on_segment_sizes(self, monkeypatch):
        # tiny blocks and a budget below one row's candidate count exercise
        # block edges and empty candidate slices
        expected = _build(TRI, 3000)
        monkeypatch.setattr(poset_module, "_K_BLOCK", 7)
        monkeypatch.setattr(poset_module, "_CANDIDATE_BUDGET", 5)
        assert _same_table(_build(TRI, 3000), expected)

    def test_sampled_rows_match_trial_oracle_1e5(self, tri_poset_1e5):
        n = tri_poset_1e5.max_index
        table = tri_poset_1e5.predecessor_table(n)
        for k in random.Random(20240207).sample(range(2, n + 1), 50):
            assert table.row(k).tolist() == tri_poset_1e5.strict_predecessors_trial(k), k

    def test_transient_memory_is_bounded(self):
        # the table itself is most of what the build allocates; a segment
        # size that balloons the candidate arrays pushes the peak past this
        poset = DivisibilityPoset(TRI, 100_000)
        tracemalloc.start()
        try:
            table = poset.predecessor_table(100_000)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 100_001
        assert peak - current <= 4 * 2**20

    def test_triangular_indices_exact_at_int64_edge(self):
        top = self.INT64_TOP
        assert 8 * sequence_value(TRI, top) + 1 <= 2**63 - 1
        assert 8 * sequence_value(TRI, top + 1) + 1 > 2**63 - 1
        # every triangular value in a band below the limit, and its neighbours
        k = np.arange(top - 200_000, top + 1, dtype=np.int64)
        t = k * (k + 1) // 2
        hits, idx = poset_module._triangular_hits(t)
        assert np.array_equal(hits, np.arange(len(t))) and np.array_equal(idx, k)
        assert len(poset_module._triangular_hits(t - 1)[0]) == 0
        assert len(poset_module._triangular_hits(t + 1)[0]) == 0
        rng = random.Random(7)
        values = [1, 2, 3, 6, 7]
        values += [rng.randrange(1, sequence_value(TRI, top)) for _ in range(2000)]
        hits, idx = poset_module._triangular_hits(np.array(values, dtype=np.int64))
        got = np.zeros(len(values), dtype=np.int64)
        got[hits] = idx
        assert got.tolist() == [triangular_index(v) for v in values]

    def test_rejects_table_past_int64_range(self, monkeypatch):
        class SieveReached(Exception):
            pass

        def sieve_reached(*args, **kwargs):
            raise SieveReached

        top = self.INT64_TOP
        monkeypatch.setattr(poset_module, "_window_divisors", sieve_reached)
        with pytest.raises(OverflowError):
            DivisibilityPoset(TRI, top + 1).predecessor_table(top + 1)
        # the limit itself passes the check and reaches the sieve
        with pytest.raises(SieveReached):
            DivisibilityPoset(TRI, top).predecessor_table(top)

    @pytest.mark.parametrize(
        "w0,w1",
        [(1, 1), (1, 2), (1, 200), (2, 2), (3, 3), (2, 9), (2, 10), (3, 9), (3, 10),
         (4096, 6000), (4097, 6001), (999_997, 1_000_200)],
    )
    @pytest.mark.parametrize("odd", [False, True])
    def test_window_divisors_match_brute_force(self, w0, w1, odd):
        # the odd window lists the odd m only, slot j holding m = w0 + 2j or w0 + 2j + 1
        divs, offsets = poset_module._window_divisors(w0, w1, odd=odd)
        ms = [m for m in range(w0, w1 + 1) if m % 2 or not odd]
        assert len(offsets) == len(ms) + 1 and offsets[0] == 0
        for m in ms:
            j = (m - w0) >> odd
            got = sorted(divs[offsets[j] : offsets[j + 1]].tolist())
            small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
            assert got == sorted({*small, *(m // d for d in small)}), m


class TestCovers:
    def test_paper_examples(self, tri_poset):
        assert tri_poset.covers(4, 19)
        assert not tri_poset.covers(5, 20)  # route through 14 exists
        assert not tri_poset.covers(7, 7)

    def test_exhaustive_z_scan_for_4_19(self, tri_poset):
        # independent of the covers implementation: scan every candidate z
        assert tri_poset.leq(4, 19)
        blockers = [
            z
            for z in range(1, 2001)
            if z not in (4, 19) and tri_poset.leq(4, z) and tri_poset.leq(z, 19)
        ]
        assert blockers == []

    def test_unrelated_pairs_never_cover(self, tri_poset):
        assert not tri_poset.covers(2, 4)
        assert not tri_poset.covers(19, 4)


class TestHasseGraph:
    def test_equality_compares_size_and_edges(self):
        def graph(n, pairs, dtype=np.int32):
            lower, upper = np.array(pairs, dtype=dtype).reshape(-1, 2).T
            return poset_module.HasseGraph(n, lower.copy(), upper.copy())

        g = graph(4, [(1, 2), (1, 3), (2, 4)])
        assert g == graph(4, [(1, 2), (1, 3), (2, 4)], dtype=np.int64)
        assert g != graph(5, [(1, 2), (1, 3), (2, 4)])
        assert g != graph(4, [(1, 2), (1, 3)])
        assert g != graph(4, [(1, 2), (1, 3), (3, 4)])
        assert g != g.edges
        assert g.edges == ((1, 2), (1, 3), (2, 4))
        assert all(type(v) is int for pair in g.edges for v in pair)

    def test_arrays_are_read_only(self, tri_poset):
        graph = tri_poset.hasse_edges(20)
        with pytest.raises(ValueError):
            graph.lower[0] = 7
        with pytest.raises(ValueError):
            graph.upper[0] = 7


class TestHasseEdges:
    def test_n20_matches_oracle(self, tri_poset):
        graph = tri_poset.hasse_edges(20)
        assert graph.n_elements == 20
        assert list(graph.edges) == HASSE_TRI_20

    def test_paper_edges_present_and_absent(self, tri_poset):
        edges = set(tri_poset.hasse_edges(20).edges)
        assert (5, 14) in edges
        assert (14, 20) in edges
        assert (5, 20) not in edges

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_single_element(self, kind):
        graph = DivisibilityPoset(kind, 5).hasse_edges(1)
        assert graph.edges == ()
        assert len(graph.lower) == len(graph.upper) == 0
        assert DivisibilityPoset(kind, 5).hasse_edges(2).edges == ((1, 2),)

    def test_sorted_and_unique(self, tri_poset):
        edges = tri_poset.hasse_edges(150).edges
        assert list(edges) == sorted(set(edges))

    @staticmethod
    def _covering_pairs(poset, n):
        # covers() works from the definition and never reads the table
        return {
            (i, j)
            for j in range(1, n + 1)
            for i in poset.strict_predecessors_trial(j)
            if poset.covers(i, j)
        }

    def test_edges_are_covers(self, tri_poset):
        edges = set(tri_poset.hasse_edges(200).edges)
        assert edges == self._covering_pairs(tri_poset, 200)

    def test_identity_edges_are_covers(self, identity_poset):
        edges = set(identity_poset.hasse_edges(200).edges)
        assert edges == self._covering_pairs(identity_poset, 200)

    def test_transitive_reduction_reaches_all_relations(self, tri_poset):
        # every related pair must be connected by a path of covering edges
        graph = tri_poset.hasse_edges(100)
        above = {v: set() for v in range(1, 101)}
        for lo, hi in graph.edges:
            above[lo].add(hi)
        for i in range(1, 101):
            reachable = set()
            stack = [i]
            while stack:
                v = stack.pop()
                for w in above[v]:
                    if w not in reachable:
                        reachable.add(w)
                        stack.append(w)
            related = {
                j for j in range(1, 101) if j != i and tri_poset.leq(i, j)
            }
            assert related == reachable, i

    @staticmethod
    def _set_based_edges(poset, n):
        """The earlier set-based hasse_edges, kept as a reference: i in row j
        is an edge unless it is in row z for some z in row j."""
        table = _rows(poset.predecessor_table(n))
        edges = []
        for j in range(2, n + 1):
            below = set()
            for z in table[j]:
                below.update(table[z])
            edges.extend((i, j) for i in table[j] if i not in below)
        return sorted(edges)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_matches_set_based_reference_3000(self, kind):
        poset = DivisibilityPoset(kind, 3000)
        assert list(poset.hasse_edges(3000).edges) == self._set_based_edges(poset, 3000)

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_does_not_depend_on_block_size(self, kind, monkeypatch):
        expected = DivisibilityPoset(kind, 3000).hasse_edges(3000)
        for cap in (1, 7):
            monkeypatch.setattr(poset_module, "_RUN_CAP", cap)
            assert DivisibilityPoset(kind, 3000).hasse_edges(3000) == expected, cap

    @pytest.mark.parametrize("kind", [TRI, IDENT])
    def test_table_is_freed_before_the_edges_are_listed(self, kind, monkeypatch):
        expected = DivisibilityPoset(kind, 3000).hasse_edges(3000)
        refs = []
        build, make_graph = DivisibilityPoset.predecessor_table, poset_module.HasseGraph

        def spy_build(poset, n):
            table = build(poset, n)
            refs.extend(map(weakref.ref, (table, table.indptr, table.indices)))
            return table

        def spy_graph(*args):
            assert len(refs) == 3 and all(ref() is None for ref in refs)
            return make_graph(*args)

        monkeypatch.setattr(DivisibilityPoset, "predecessor_table", spy_build)
        monkeypatch.setattr(poset_module, "HasseGraph", spy_graph)
        graph = DivisibilityPoset(kind, 3000).hasse_edges(3000)
        monkeypatch.undo()
        assert graph == expected

    def test_edges_are_sorted_without_the_table(self):
        n = 200_000
        poset = DivisibilityPoset(TRI, n)
        table = poset.predecessor_table(n)
        table_bytes = table.indptr.nbytes + table.indices.nbytes  # 3.8 MB
        del table
        tracemalloc.start()
        try:
            graph = poset.hasse_edges(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph.lower) == 339_795
        # the run loop holds the table, the cover CSR and a run's temporaries
        # (~3.0 MB beside the table); with the table still held through the
        # listing and the sort of the edges the peak was ~7.5 MB beside it
        assert peak < table_bytes + (4 << 20)

    def test_rows_at_block_edges_match_covers(self):
        # the builder makes its rows in blocks of _K_BLOCK starting at row 2,
        # so the blocks end at rows 4097 and 8193
        n = 8194
        poset = DivisibilityPoset(TRI, n)
        graph = poset.hasse_edges(n)
        for j in (4095, 4096, 4097, 4098, 8192, 8193, 8194):
            found = graph.lower[graph.upper == j].tolist()
            expected = [i for i in poset.strict_predecessors_trial(j) if poset.covers(i, j)]
            assert found == expected, j

    def test_sampled_rows_match_the_relation_1e5(self, tri_poset_1e5):
        n = 100_000
        poset = tri_poset_1e5
        graph = poset.hasse_edges(n)
        # the rows where a run of hasse_edges stops short of its cap: the
        # first row whose last predecessor is at or past the run's start
        table = poset.predecessor_table(n)
        cuts = [hi + 1 for lo, hi, *_ in table.runs() if hi < n and table.row(hi + 1)[-1] >= lo]
        rng = random.Random(1972)
        rows = rng.sample(cuts, 4) + rng.sample(range(2, n + 1), 6)
        for j in rows:
            # the check reads no table: z is a cover of j unless a larger
            # predecessor of j sits above it
            preds = poset.strict_predecessors_trial(j)
            expected = [z for z in preds if not any(poset.leq(z, w) for w in preds if w > z)]
            assert graph.lower[graph.upper == j].tolist() == expected, j

    def test_identity_edges_are_prime_multiples_5e4(self):
        # j covers i in the divisor lattice exactly when j = i*p, p prime;
        # the primes come from a sieve that never reads the table
        n = 50_000
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(n**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        d = np.concatenate([np.arange(1, n // p + 1) for p in primes])
        p = np.repeat(primes, n // primes)
        expected = np.sort(d * (n + 1) + d * p)
        graph = DivisibilityPoset(IDENT, n).hasse_edges(n)
        found = graph.lower.astype(np.int64) * (n + 1) + graph.upper
        assert np.array_equal(found, expected)

    def test_identity_covers_are_prime_steps(self, identity_poset):
        # in the divisor lattice, j covers i exactly when j/i is prime
        def is_prime(m):
            return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))

        for i, j in identity_poset.hasse_edges(60).edges:
            assert j % i == 0 and is_prime(j // i)
