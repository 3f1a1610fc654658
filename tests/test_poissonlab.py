"""Symbolic Poisson structure on the open cells of the complete flag
variety of SL(n+1), its degeneracy ideal, and the non-reducedness scan."""

from fractions import Fraction

import pytest

from flagloci import poissonlab
from flagloci.poissonlab import (
    build_chart,
    degeneracy_ideal,
    nonreduced_witness,
    partial_derivative,
    poisson_matrix,
    scan_cells,
    substitute_zero,
    variable_weight,
    vector_field,
    verify_sl3_decomposition,
)
from flagloci.polyalg import membership, parse_polynomial

SL4_BRACKETS = [
    ("x21", "x31", "x21*x31"),
    ("x21", "x32", "-x21*x32 + 2*x31"),
    ("x21", "x41", "x21*x41"),
    ("x21", "x42", "-x21*x42 + 2*x41"),
    ("x21", "x43", "0"),
    ("x31", "x32", "x31*x32"),
    ("x31", "x41", "x31*x41"),
    ("x31", "x42", "2*x32*x41"),
    ("x31", "x43", "-x31*x43 + 2*x41"),
    ("x32", "x41", "0"),
    ("x32", "x42", "x32*x42"),
    ("x32", "x43", "-x32*x43 + 2*x42"),
    ("x41", "x42", "x41*x42"),
    ("x41", "x43", "x41*x43"),
    ("x42", "x43", "x42*x43"),
]


def fm(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_sl2_derivations_frozen():
    ch = build_chart(1)
    assert ch.ring.variables == ("x21",)
    assert [str(p) for p in vector_field(ch, fm(((0, 0), (1, 0))))] == ["1"]
    assert [str(p) for p in vector_field(ch, fm(((0, 1), (0, 0))))] == ["-x21^2"]
    assert [str(p) for p in vector_field(ch, fm(((1, 0), (0, -1))))] == ["-2*x21"]


def test_vector_field_rejects_traceful():
    ch = build_chart(1)
    with pytest.raises(ValueError):
        vector_field(ch, fm(((1, 0), (0, 0))))


def test_sl3_brackets_frozen():
    ch = build_chart(2)
    assert ch.ring.variables == ("x21", "x31", "x32")
    pm = poisson_matrix(ch)
    assert str(pm.bracket("x21", "x31")) == "x21*x31"
    assert str(pm.bracket("x21", "x32")) == "-x21*x32 + 2*x31"
    assert str(pm.bracket("x31", "x32")) == "x31*x32"
    assert str(pm.bracket("x31", "x21")) == "-x21*x31"


def test_sl4_brackets_frozen():
    ch = build_chart(3)
    pm = poisson_matrix(ch)
    for a, b, text in SL4_BRACKETS:
        assert str(pm.bracket(a, b)) == text
    nonzero = sum(1 for _, _, t in SL4_BRACKETS if t != "0")
    assert nonzero == 13


def test_poisson_matrix_matches_vector_field():
    charts = [build_chart(2, v) for v in ("123", "132", "213", "231", "312", "321")]
    for ch in charts + [build_chart(3)]:
        m, k = ch.size, len(ch.ring.variables)
        expected = [[ch.ring.const(0)] * k for _ in range(k)]
        for i in range(m):
            for j in range(i + 1, m):
                e = [[Fraction(int((a, b) == (i, j))) for b in range(m)] for a in range(m)]
                f = [[Fraction(int((a, b) == (j, i))) for b in range(m)] for a in range(m)]
                chi_e, chi_f = vector_field(ch, e), vector_field(ch, f)
                for a in range(k):
                    for b in range(k):
                        term = chi_e[a] * chi_f[b] - chi_e[b] * chi_f[a]
                        expected[a][b] = expected[a][b] + term
        pm = poisson_matrix(ch)
        assert [list(row) for row in pm.entries] == expected, ch.v_oneline


def test_bracket_antisymmetry():
    ch = build_chart(2)
    pm = poisson_matrix(ch)
    for a in ch.ring.variables:
        assert pm.bracket(a, a).is_zero()
        for b in ch.ring.variables:
            assert (pm.bracket(a, b) + pm.bracket(b, a)).is_zero()


def test_jacobi_identity():
    for n in (2, 3):
        ch = build_chart(n)
        pm = poisson_matrix(ch)
        nv = len(ch.ring.variables)

        def brk(f, g):
            out = ch.ring.const(0)
            for i in range(nv):
                for j in range(nv):
                    if pm.entries[i][j].is_zero():
                        continue
                    out = out + (
                        partial_derivative(f, i)
                        * partial_derivative(g, j)
                        * pm.entries[i][j]
                    )
            return out

        xs = [ch.ring.var(v) for v in ch.ring.variables]
        for a in range(nv):
            for b in range(a + 1, nv):
                for c in range(b + 1, nv):
                    f, g, h = xs[a], xs[b], xs[c]
                    jac = brk(f, brk(g, h)) + brk(g, brk(h, f)) + brk(h, brk(f, g))
                    assert jac.is_zero()


def test_scaling_independence():
    ch = build_chart(2)
    base = poisson_matrix(ch)
    stretched = poisson_matrix(ch, scale=Fraction(2))
    nv = len(ch.ring.variables)
    for a in range(nv):
        for b in range(nv):
            assert (base.entries[a][b] - stretched.entries[a][b]).is_zero()


def test_bracket_weights_are_additive():
    # each bracket {x_a, x_b} is a T-weight vector of weight wt(a) + wt(b)
    ch = build_chart(3)
    pm = poisson_matrix(ch)
    names = ch.ring.variables
    wt = {n: variable_weight(ch, n) for n in names}
    for a in names:
        for b in names:
            p = pm.bracket(a, b)
            if p.is_zero():
                continue
            target = tuple(x + y for x, y in zip(wt[a], wt[b]))
            for e in p.terms:
                got = [0] * ch.size
                for t, k in enumerate(e):
                    for _ in range(k):
                        got = [x + y for x, y in zip(got, wt[names[t]])]
                assert tuple(got) == target


def test_degeneracy_ideal_sl3_frozen():
    ch = build_chart(2)
    di = degeneracy_ideal(ch)
    assert [str(g) for g in di.ideal.generators] == [
        "-x21*x31",
        "x21*x32 - 2*x31",
        "-x31*x32",
    ]


def test_membership_facts_sl3():
    ch = build_chart(2)
    ideal = degeneracy_ideal(ch).ideal
    x21 = ch.ring.var("x21")
    x31 = ch.ring.var("x31")
    assert membership(x31 * x31, ideal)
    assert not membership(x31, ideal)
    assert not membership(x21 * x21, ideal)


def test_membership_facts_sl4():
    ch = build_chart(3)
    ideal = degeneracy_ideal(ch).ideal
    x21 = ch.ring.var("x21")
    x31 = ch.ring.var("x31")
    assert not membership(x21 * x21, ideal)
    assert not membership(x21, ideal)
    assert membership(x31 * x31, ideal)
    assert not membership(x31, ideal)


def test_witnesses():
    assert nonreduced_witness(build_chart(2)) == "x31"
    assert nonreduced_witness(build_chart(3)) == "x31"


def test_sl5_big_cell_witness():
    ch = build_chart(4)
    di = degeneracy_ideal(ch)
    assert len(di.ideal.generators) == 35
    assert nonreduced_witness(ch, di=di) == "x31"


def test_sl3_decomposition():
    assert verify_sl3_decomposition() is True


def test_ideal_vanishes_on_strata():
    # substituting the two codimension-one coordinate subspaces kills I
    ch = build_chart(2)
    di = degeneracy_ideal(ch)
    for names in (("x21", "x31"), ("x31", "x32")):
        for g in di.ideal.generators:
            assert substitute_zero(g, names).is_zero()


def test_scan_cells_n2():
    result = scan_cells(2)
    assert result["n"] == 2
    assert len(result["charts"]) == 6
    assert result["witness_charts"] == ["123", "321"]
    for rec in result["charts"]:
        assert rec["timeout"] is False
        if rec["v"] in ("123", "321"):
            assert rec["witness"] == "x31"
        else:
            assert rec["witness"] is None


def test_identity_cell_has_full_ideal():
    # w0-cell: Poisson structure restricted to the opposite big cell
    ch = build_chart(2, "321")
    di = degeneracy_ideal(ch)
    assert len(di.ideal.generators) == 3


def test_variable_weight():
    ch = build_chart(2)
    assert variable_weight(ch, "x21") == (1, -1, 0)
    assert variable_weight(ch, "x31") == (1, 0, -1)


def test_variable_weight_two_digit_rows():
    ch = build_chart(9)
    e = lambda k: tuple(int(t == k - 1) for t in range(10))
    minus = lambda a, b: tuple(x - y for x, y in zip(a, b))
    assert variable_weight(ch, "x101") == minus(e(1), e(10))
    assert variable_weight(ch, "x109") == minus(e(9), e(10))
    assert variable_weight(ch, "x21") == minus(e(1), e(2))


def test_partial_derivative():
    ch = build_chart(2)
    f = parse_polynomial(ch.ring, "x21^2*x31 - 3*x32")
    assert str(partial_derivative(f, 0)) == "2*x21*x31"
    assert str(partial_derivative(f, 1)) == "x21^2"
    assert str(partial_derivative(f, 2)) == "-3"


def test_chart_rejects_bad_oneline():
    with pytest.raises(ValueError):
        build_chart(2, "331")
    with pytest.raises(ValueError):
        build_chart(2, "12")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_scan_pool_size(monkeypatch):
    monkeypatch.setattr(poissonlab, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(
        poissonlab,
        "_scan_one",
        lambda job: {"v": job[1], "witness": None, "generators": 0, "timeout": False},
    )
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    for cpus, workers in ((4, 64), (64, 64), (1, 64), (4, 1), (None, 8)):
        monkeypatch.setattr(poissonlab.os, "cpu_count", lambda: cpus)
        assert len(scan_cells(2, workers=workers)["charts"]) == 6
    # min(workers, cpus, 6 charts); a size of 1 runs in-process
    assert _RecordingPool.sizes == [4, 6]
    with pytest.raises(ValueError):
        scan_cells(2, workers=0)
