"""Reference answers for the benchmark's oracles, keyed by input.

Every entry is keyed by a Cartan type or a chart, never by a seed, so a
seed only changes which entries a run consults.  Where the test suite
freezes a value the entry repeats it (A3 counts, 25 maximal pairs, the
SL4 big-cell witness x31).  The other entries were computed once with
the library and are cross-checked without it by ``selftest.py``:

* the witnessed pairs of a product group are products of witnessed pairs
  of its factors, so ``counts_by_d`` of ``XxY`` is the convolution of the
  factors' tables and its maximal-pair count is the product;
* every Bruhat cover is a reflection, so ``covers`` equals the number of
  pairs with d = 1;
* ``order`` and ``positive_roots`` follow the classical formulas.
"""

# Pool of the ``tables`` workload: rank 3-4, order at most 48.  Seven types,
# so the median and the tail of a run fall inside one type's block of ops.
# gcr_p counts are for every J of size rank - 1, written as a digit string.
TABLES = {
    "A2xA1": {
        "order": 12, "covers": 22, "positive_roots": 4,
        "counts_by_d": {0: 12, 1: 22, 2: 8}, "maximal": 8,
        "gcr_p": {"12": 6, "13": 6, "23": 3},
    },
    "B2xA1": {
        "order": 16, "covers": 32, "positive_roots": 5,
        "counts_by_d": {0: 16, 1: 32, 2: 16, 3: 2}, "maximal": 6,
        "gcr_p": {"12": 10, "13": 10, "23": 3},
    },
    "G2xA1": {
        "order": 24, "covers": 52, "positive_roots": 7,
        "counts_by_d": {0: 24, 1: 52, 2: 24, 3: 2}, "maximal": 14,
        "gcr_p": {"12": 16, "13": 16, "23": 3},
    },
    "A3": {
        "order": 24, "covers": 58, "positive_roots": 6,
        "counts_by_d": {0: 24, 1: 58, 2: 11}, "maximal": 25,
        "gcr_p": {"12": 10, "13": 20, "23": 10},
    },
    "A2xA2": {
        "order": 36, "covers": 96, "positive_roots": 6,
        "counts_by_d": {0: 36, 1: 96, 2: 64}, "maximal": 64,
        "gcr_p": {"123": 6, "124": 6, "134": 6, "234": 6},
    },
    "B3": {
        "order": 48, "covers": 138, "positive_roots": 9,
        "counts_by_d": {0: 48, 1: 138, 2: 50, 3: 4}, "maximal": 48,
        "gcr_p": {"12": 35, "13": 56, "23": 21},
    },
    "C3": {
        "order": 48, "covers": 138, "positive_roots": 9,
        "counts_by_d": {0: 48, 1: 138, 2: 50, 3: 4}, "maximal": 48,
        "gcr_p": {"12": 35, "13": 56, "23": 21},
    },
}

# Factor tables used only by the self-test's product check.
FACTORS = {
    "A1": {"counts_by_d": {0: 2, 1: 1}, "maximal": 1},
    "A2": {"counts_by_d": {0: 6, 1: 8}, "maximal": 8},
    "B2": {"counts_by_d": {0: 8, 1: 12, 2: 2}, "maximal": 6},
    "G2": {"counts_by_d": {0: 12, 1: 20, 2: 2}, "maximal": 14},
}

# Pool of the ``topdim`` workload: every group has |W| > 10000, so no
# call may build a Bruhat table.  ``cascade`` is the cascade size, which
# equals the reflection length of w0 and the d of the top pair.
TOPDIM = {
    "A7": {"order": 40320, "positive_roots": 28, "cascade": 4},
    "B6": {"order": 46080, "positive_roots": 36, "cascade": 6},
    "C6": {"order": 46080, "positive_roots": 36, "cascade": 6},
    "D6": {"order": 23040, "positive_roots": 30, "cascade": 6},
    "D7": {"order": 322560, "positive_roots": 42, "cascade": 6},
    "E6": {"order": 51840, "positive_roots": 36, "cascade": 4},
    "E7": {"order": 2903040, "positive_roots": 63, "cascade": 7},
}

# SL4 charts of the ``poisson`` workload, by one-line notation of v:
# (number of degeneracy-ideal generators, first non-reduced witness or None).
SL4_CHARTS = {
    "1234": (13, "x31"),
    "1243": (13, "x31"),
    "1324": (13, "x41"),
    "1342": (13, "x31"),
    "1423": (14, "x41"),
    "1432": (14, "x42"),
    "2134": (13, "x41"),
    "2143": (13, None),
    "2314": (12, "x41"),
    "2341": (12, "x31"),
    "2413": (13, None),
    "2431": (13, "x42"),
    "3124": (13, "x42"),
    "3142": (13, None),
    "3214": (12, "x31"),
    "3241": (12, "x41"),
    "3412": (13, None),
    "3421": (13, "x41"),
    "4123": (14, "x42"),
    "4132": (14, "x41"),
    "4213": (13, "x31"),
    "4231": (13, "x41"),
    "4312": (13, "x31"),
    "4321": (13, "x31"),
}
