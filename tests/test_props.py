import pytest

from trimobius import props as props_module
from trimobius import (
    DivisibilityPoset,
    SequenceKind,
    prop1_check,
    prop2_check,
    scan_range,
)


def _tri(k):
    return k * (k + 1) // 2


class TestProp1:
    @pytest.mark.parametrize("n,ratio", [(1, 3), (2, 7), (3, 13)])
    def test_examples(self, n, ratio):
        verdict = prop1_check(n)
        assert verdict.holds
        assert verdict.witness_ratio == ratio
        assert verdict.witness_ratio * _tri(n) == _tri(n * (n + 1))

    def test_closed_form_ratio(self):
        # the quotient from direct division must equal n(n+1) + 1
        for n in range(1, 2001):
            verdict = prop1_check(n)
            assert verdict.holds
            assert verdict.witness_ratio == n * (n + 1) + 1

    def test_beyond_64_bit_values(self):
        # T(n(n+1)) overflows u64 near n = 78,000; plain integers carry on
        verdict = prop1_check(10**5)
        assert verdict.holds
        assert verdict.witness_ratio == 10**5 * (10**5 + 1) + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prop1_check(0)


class TestProp2:
    @pytest.mark.parametrize(
        "n,holds,ratio",
        [(1, True, 1), (2, True, 2), (3, False, None), (4, False, None), (5, True, 8)],
    )
    def test_examples(self, n, holds, ratio):
        verdict = prop2_check(n)
        assert verdict.holds == holds
        assert verdict.witness_ratio == ratio

    def test_witness_divides_back(self):
        for n in range(1, 500):
            verdict = prop2_check(n)
            if verdict.holds:
                assert verdict.witness_ratio * _tri(n) == _tri(_tri(n))
                assert verdict.witness_ratio == (n * (n + 1) + 2) // 4

    def test_mod4_pattern(self):
        for n in range(1, 2001):
            assert prop2_check(n).holds == (n % 4 in (1, 2)), n


class TestScanRange:
    def test_clean_at_2000(self):
        scan = scan_range(2000)
        assert scan.ok
        assert scan.prop1_failures == ()
        assert scan.prop2_pattern_breaks == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scan_range(0)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_agrees_with_the_verdict_functions(self, perturbed, monkeypatch):
        # the scan divides inline; it must report what the verdicts say, also
        # when a perturbed T(k) makes both propositions fail somewhere
        if perturbed:
            monkeypatch.setattr(props_module, "_tri", lambda k: _tri(k) + (k % 7 == 0))
        scan = scan_range(3000)
        ns = range(1, 3001)
        assert scan.prop1_failures == tuple(n for n in ns if not prop1_check(n).holds)
        assert scan.prop2_pattern_breaks == tuple(
            n for n in ns if prop2_check(n).holds != (n % 4 in (1, 2))
        )
        assert scan.ok != perturbed


class TestPosetConsistency:
    def test_prop1_implies_relation(self):
        poset = DivisibilityPoset(SequenceKind.TRIANGULAR, 200)
        for n in range(1, 14):  # n(n+1) <= 200 up to n = 13
            assert poset.leq(n, n * (n + 1))

    def test_prop2_matches_relation(self):
        poset = DivisibilityPoset(SequenceKind.TRIANGULAR, 500)
        for n in range(1, 31):  # T(n) <= 500 up to n = 30
            assert poset.leq(n, _tri(n)) == (n % 4 in (1, 2)), n
