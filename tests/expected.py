"""Frozen expected values shared across test modules.

The two 10x10 matrices and the first ten Mobius values are transcriptions
of the published tables for this poset (also the bundled OEIS snapshots).
Values marked derived were computed with the independent oracles in this
suite (trial-division relation tests, classical sieve, brute-force
factorization) and then frozen.
"""

# mu(1, n) for the triangular kind, n = 1..10 (published matrix, first column)
MU_TRI_10 = [1, -1, 0, -1, 0, 0, -1, 0, 0, -1]

# classical mu(n), n = 1..10 (sieve oracle); the identity kind must equal it
MU_IDENTITY_10 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

ZETA_TRI_10 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0, 1, 0, 0],
    [1, 1, 0, 0, 1, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]

MOBIUS_TRI_10 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0, 1, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]

# first n with |mu(n)| >= M (derived; matches the published table for M <= 4)
FIRST_GEQ = {1: 1, 2: 44, 3: 272, 4: 1274, 5: 2079, 6: 2079, 7: 2079, 8: 2079}

# first n with |mu(n)| == M (derived; this reading reproduces the published
# table for every row, including the non-monotone M = 7, 8 entries)
FIRST_EQ = {1: 1, 2: 44, 3: 272, 4: 1274, 5: 2639, 6: 6720, 7: 3024, 8: 2079}

# signed reading: first n with mu(n) >= M (derived at N = 10,000)
FIRST_GEQ_SIGNED = {1: 1, 2: 44, 3: 272, 4: 1274, 5: 8040}

# spot magnitudes behind the records (derived)
MU_SPOT = {44: 2, 272: 3, 1274: 4, 2079: -8}

# partial sums (derived): value at selected n for the triangular kind
MERTENS_TRI_SPOT = {10: -3, 1000: -27, 10000: -316}

# derived from the original builder (smallest-prime-factor factorisation
# of k and k+1, since replaced), not from the paper: the triangular
# partial sum at N = 100,000 and the largest |mu(n)| up to it
MERTENS_TRI_1E5 = -3708
MAX_ABS_MU_TRI_1E5 = 15

# indices in [100, 10000] where the partial sum is >= 0 (derived; the sum
# is exactly 0 at all of them except 288 where it is +1)
MERTENS_NONNEG_TOUCHES = [287, 288, 289, 290, 291, 299, 300, 344, 345]

# triangular predecessor table rows 0..n (derived from the original builder, not
# from the paper): total entry count and the SHA-256 of
# " ".join(",".join(map(str, row)) for row in table)
PRED_TABLE_TRI = {
    10_000: (38_663, "fb4e6dbf19402d7d59d0a24af500672a7bc83474587cc5e0ad1a72658166ec2f"),
    100_000: (394_760, "0b8c61784d598f63a86948e76f2a5d75c4a6c57bf3aaa9a526d5c0c652c9c5f9"),
}

# covering edges among 1..20, triangular kind (derived via the trial oracle)
HASSE_TRI_20 = [
    (1, 2), (1, 4), (1, 7), (1, 10), (1, 13), (1, 16),
    (2, 3), (2, 5), (2, 6), (2, 17), (2, 18),
    (3, 8), (3, 11), (3, 12), (3, 15), (3, 20),
    (4, 15), (4, 19), (4, 20),
    (5, 9), (5, 14), (5, 15),
    (6, 14), (14, 20),
]
