"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
reported (non-pinned) desk-scale estimates.

Criterion 9's first clause is implemented exactly as stated and marked as
an expected failure: the partial sums provably return to zero (and once to
+1) between n = 287 and n = 345, so "strictly negative for all
100 <= n <= 10000" cannot hold.  The assertion is kept faithful rather
than weakened; see the strict xfail below for the measured counterexamples.
"""

import time

import pytest

from expected import (
    FIRST_EQ,
    FIRST_GEQ,
    MERTENS_NONNEG_TOUCHES,
    MOBIUS_TRI_10,
    MU_TRI_10,
    ZETA_TRI_10,
)
from trimobius import (
    DivisibilityPoset,
    SequenceKind,
    abs_sums,
    classical_mobius,
    estimate_C,
    invert_zeta,
    magnitude_records,
    mertens_tri,
    mobius_one_var,
    mobius_two_var,
    oeis_diff,
    ratio_sums_index,
    ratio_sums_triangular,
    verify_inverse,
    zeta_matrix,
)
from trimobius.bfile import bundled_snapshot

TRI = SequenceKind.TRIANGULAR
IDENT = SequenceKind.IDENTITY


def _criterion(num, ok, description, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_c01_zeta_matrix_regression(capsys):
    from trimobius.cli import main

    start = time.perf_counter()
    code = main(["zeta-matrix", "--kind", "triangular", "-n", "10"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [[int(v) for v in line.split(",")] for line in out.splitlines()]
    ok = code == 0 and rows == ZETA_TRI_10 and elapsed < 1.0
    with capsys.disabled():
        _criterion(1, ok, "zeta-matrix CLI at n=10 matches the published "
                          "table", f"{elapsed:.3f}s")


def test_c02_mobius_matrix_regression(capsys):
    start = time.perf_counter()
    poset = DivisibilityPoset(TRI, 10)
    inverted = invert_zeta(zeta_matrix(poset, 10))
    recursed = [
        [mobius_two_var(poset, j, i) for j in range(1, 11)] for i in range(1, 11)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        inverted.array.tolist() == MOBIUS_TRI_10
        and recursed == MOBIUS_TRI_10
        and elapsed < 1.0
    )
    with capsys.disabled():
        _criterion(2, ok, "inversion and recursion both reproduce the 10x10 "
                          "Mobius matrix", f"{elapsed:.3f}s")


def test_c03_one_variable_sequence(capsys):
    poset = DivisibilityPoset(TRI, 10)
    terms = mobius_one_var(poset, 10).terms()
    report = oeis_diff(bundled_snapshot("A350682"), terms)
    ok = terms == MU_TRI_10 and report.matched and report.overlap_length == 10
    with capsys.disabled():
        _criterion(3, ok, "mu(1..10) matches the published column and the "
                          "bundled A350682 snapshot", report.summary())


def test_c04_oracle_equivalence_n200(capsys):
    start = time.perf_counter()
    ok = True
    for kind in (TRI, IDENT):
        poset = DivisibilityPoset(kind, 200)
        zeta = zeta_matrix(poset, 200)
        minv = invert_zeta(zeta)
        ok = ok and verify_inverse(zeta, minv)
        ok = ok and minv.array[:, 0].tolist() == mobius_one_var(poset, 200).terms()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        _criterion(4, ok, "n=200 inversion equals recursion and M.Z = I, "
                          "both kinds", f"{elapsed:.2f}s")


def test_c05_classical_baseline(capsys):
    start = time.perf_counter()
    sieve_small = classical_mobius(10**5)
    ident = DivisibilityPoset(IDENT, 10**5)
    recursion = mobius_one_var(ident, 10**5)
    exact_match = recursion.terms() == sieve_small.terms()
    sieve_big = classical_mobius(10**6)
    density = sum(abs(v) for v in sieve_big.terms()) / 10**6
    elapsed = time.perf_counter() - start
    ok = exact_match and abs(density - 0.6079) <= 0.003 and elapsed < 30.0
    with capsys.disabled():
        _criterion(5, ok, "identity kind equals the sieve to 1e5; classical "
                          "density at 1e6 near 6/pi^2",
                   f"density={density:.4f}, {elapsed:.2f}s")


def test_c06_magnitude_records(mu_tri_10k, capsys):
    start = time.perf_counter()
    poset = DivisibilityPoset(TRI, 1500)
    table = magnitude_records(mobius_one_var(poset, 1500))
    elapsed = time.perf_counter() - start
    pinned = {m: table.first_at_least(m) for m in (1, 2, 3, 4)}
    ok = pinned == {1: 1, 2: 44, 3: 272, 4: 1274} and elapsed < 30.0
    # rows above M = 4 first appear past n = 2000; report them at N = 1e4
    # under both readings rather than pinning either
    vec, _ = mu_tri_10k
    wide = magnitude_records(vec)
    reported = {r.magnitude: (r.first_at_least, r.first_equal)
                for r in wide.rows if r.magnitude >= 5}
    ok = ok and {r.magnitude: r.first_at_least for r in wide.rows} == FIRST_GEQ
    ok = ok and {r.magnitude: r.first_equal for r in wide.rows} == FIRST_EQ
    with capsys.disabled():
        _criterion(6, ok, "first |mu| >= M at 1, 44, 272, 1274 for M = 1..4 "
                          "(N = 1500)",
                   f"unpinned rows at N=1e4, M>=5 (geq, eq): {reported}, "
                   f"{elapsed:.2f}s")


def test_c07_abs_density(mu_tri_10k, capsys):
    vec, build_time = mu_tri_10k
    start = time.perf_counter()
    report = abs_sums(vec)
    elapsed = build_time + time.perf_counter() - start
    density = float(report.slope_estimate)
    ok = 0.45 <= density <= 0.55 and elapsed < 60.0
    with capsys.disabled():
        _criterion(7, ok, "sum |mu(i)| / N in [0.45, 0.55] at N = 1e4",
                   f"density={density:.4f}, {elapsed:.2f}s")


def test_c08_ratio_limit(mu_tri_10k, capsys):
    vec, build_time = mu_tri_10k
    start = time.perf_counter()
    report = ratio_sums_index(vec)
    value = float(report.final_value)
    tri_report = ratio_sums_triangular(vec)
    tri_value = float(tri_report.final_value)
    tri_drift = abs(tri_value - float(tri_report.ys[4999]))
    elapsed = build_time + time.perf_counter() - start
    ok = abs(value - (-0.239)) <= 0.02 and elapsed < 60.0
    with capsys.disabled():
        _criterion(8, ok, "sum mu(i)/i at 1e4 within 0.02 of -0.239",
                   f"value={value:.6f}; also reported: sum mu(i)/T(i)="
                   f"{tri_value:.6f} with |ys(1e4)-ys(5e3)|={tri_drift:.2e}, "
                   f"{elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the stated range starts too early: the partial sums return to 0 "
           "at n = 287, 289, 290, 291, 299, 300, 344, 345 and reach +1 at "
           "n = 288 (verified by two independent predecessor "
           "implementations); strict negativity only holds from n = 346 on "
           "at this scale",
)
def test_c09a_partial_sums_strictly_negative(mu_tri_10k, capsys):
    vec, _ = mu_tri_10k
    report = mertens_tri(vec)
    offenders = [n for n in range(100, 10_001) if report.ys[n - 1] >= 0]
    ok = not offenders
    with capsys.disabled():
        _criterion(9, ok, "sum mu(i) < 0 for all 100 <= n <= 1e4 (as stated)",
                   f"offenders={offenders}")


def test_c09b_estimate_C_positive(mu_tri_10k, capsys):
    vec, _ = mu_tri_10k
    report = mertens_tri(vec)
    c_hat = estimate_C(report, tail_start=1000)
    # the documented counterexamples are the complete list of exceptions
    offenders = [n for n in range(100, 10_001) if report.ys[n - 1] >= 0]
    ok = c_hat > 0 and offenders == MERTENS_NONNEG_TOUCHES
    with capsys.disabled():
        _criterion(9, ok, "tail slope estimate is strictly positive "
                          "(reported desk-scale C)",
                   f"C={c_hat} ~= {float(c_hat):.5f}; sums <= 0 on [100, 1e4] "
                   f"except +1 at n=288, zero touches end at n=345")


def test_c10_propositions_to_1e5(capsys):
    start = time.perf_counter()
    from trimobius import scan_range

    scan = scan_range(10**5)
    elapsed = time.perf_counter() - start
    ok = scan.ok and elapsed < 10.0
    with capsys.disabled():
        _criterion(10, ok, "prop1 holds and prop2 matches the mod-4 pattern "
                           "for all n <= 1e5, by direct division",
                   f"{elapsed:.2f}s")


def test_c11_poset_axioms_and_hasse(capsys):
    ok = True
    for kind in (TRI, IDENT):
        poset = DivisibilityPoset(kind, 200)
        below = [set()] + [
            {j for j in range(1, 201) if poset.leq(i, j)} for i in range(1, 201)
        ]
        for i in range(1, 201):
            ok = ok and i in below[i]
            for j in below[i]:
                ok = ok and (i == j or i not in below[j])
                ok = ok and below[j] <= below[i]
    edges = set(DivisibilityPoset(TRI, 20).hasse_edges(20).edges)
    ok = ok and (5, 14) in edges and (14, 20) in edges and (5, 20) not in edges
    with capsys.disabled():
        _criterion(11, ok, "poset axioms exhaustive on 1..200; Hasse edges "
                           "for n=20 include (5,14),(14,20), exclude (5,20)")


def test_c12_performance_n10k(capsys):
    start = time.perf_counter()
    poset = DivisibilityPoset(TRI, 10_000)
    vec = mobius_one_var(poset, 10_000)
    mertens_tri(vec)
    abs_sums(vec)
    ratio_sums_index(vec)
    ratio_sums_triangular(vec)
    magnitude_records(vec)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    with capsys.disabled():
        _criterion(12, ok, "mu vector and every series at N = 1e4 inside 60 s",
                   f"{elapsed:.2f}s")
