"""Symbolic Poisson structure on the open cells of the complete flag
variety of SL(n+1), its degeneracy ideal, and the non-reducedness scan."""

import concurrent.futures
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from flagloci import poissonlab, rootsys, weyl
from flagloci.poissonlab import (
    PoissonMatrix,
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
from flagloci.polyalg import PolyRing, Polynomial, buchberger, membership, parse_polynomial
from flagloci.rootsys import build_root_system
from flagloci.weyl import perm_from_string, perm_string, reduced_word

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


def all_charts(n):
    return [build_chart(n, "".join(p)) for p in itertools.permutations("1234"[: n + 1])]


def test_poisson_matrix_matches_vector_field():
    # poisson_matrix takes the rank-one route for root vectors on terms
    # dicts; the oracle sums wedges of the generic vector_field of
    # scale*E_ij and E_ji/scale, on dense Polynomial matrices
    sl5 = ["".join(p) for p in itertools.permutations("12345")]
    sl5 = [build_chart(4, v) for v in random.Random(5).sample(sl5, 6)]
    for ch in all_charts(2) + all_charts(3) + sl5:
        m, k = ch.size, len(ch.ring.variables)
        for scale in (Fraction(1), Fraction(3, 2)):
            expected = [[ch.ring.const(0)] * k for _ in range(k)]
            for i in range(m):
                for j in range(i + 1, m):
                    e = [[scale * ((a, b) == (i, j)) for b in range(m)] for a in range(m)]
                    f = [[((a, b) == (j, i)) / scale for b in range(m)] for a in range(m)]
                    chi_e, chi_f = vector_field(ch, e), vector_field(ch, f)
                    for a in range(k):
                        for b in range(k):
                            term = chi_e[a] * chi_f[b] - chi_e[b] * chi_f[a]
                            expected[a][b] = expected[a][b] + term
            pm = poisson_matrix(ch, scale=scale)
            assert [list(row) for row in pm.entries] == expected, (ch.v_oneline, scale)


def test_forward_substitution_inverse_sl6():
    ch = build_chart(5)
    u, uinv = poissonlab._u_terms(ch)
    as_poly = lambda mat: [[Polynomial(ch.ring, d) for d in row] for row in mat]
    u_poly = poissonlab._poly_matrix_u(ch)
    assert as_poly(u) == u_poly
    assert as_poly(uinv) == poissonlab._u_inverse(ch, u_poly)
    one, zero = ch.ring.const(1), ch.ring.const(0)
    product = poissonlab._pm_mul(as_poly(u), as_poly(uinv))
    assert product == [[one if a == b else zero for b in range(6)] for a in range(6)]


def test_lift_matches_weyl_route_on_sl5():
    # the lift of the bubble-sort word equals the lift of the
    # lexicographically smallest reduced word of the Weyl element
    rs = build_root_system("A4")
    for p in itertools.permutations("12345"):
        v = "".join(p)
        w = perm_from_string(rs, v)
        ch = build_chart(4, v)
        assert ch.representative == poissonlab._lift(4, reduced_word(w)), v
        assert ch.v_oneline == perm_string(w)
    assert build_chart(4).v_oneline == "12345"
    assert build_chart(9, "1,2,3,4,5,6,7,8,10,9").v_oneline == "1,2,3,4,5,6,7,8,10,9"


def test_chart_layer_builds_no_root_system(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the chart layer built a Weyl object")

    monkeypatch.setattr(rootsys.RootSystem, "__init__", refuse)
    monkeypatch.setattr(weyl.WeylElement, "__init__", refuse)
    with pytest.raises(AssertionError):
        build_root_system("A2")
    for n, v in ((2, None), (3, "4231"), (4, "35142")):
        poisson_matrix(build_chart(n, v), scale=Fraction(3, 2))


def test_sl4_output_digest():
    # every bracket and every reduced-basis polynomial of the 24 SL4 charts,
    # frozen as one SHA-256 over their str(); the literal was computed with
    # Fraction coefficients and dense root-vector fields
    h = hashlib.sha256()
    for ch in all_charts(3):
        pm = poisson_matrix(ch)
        gb = buchberger(degeneracy_ideal(ch, pm).ideal)
        lines = [ch.v_oneline]
        lines += [str(p) for row in pm.entries for p in row]
        lines += ["--"] + [str(g) for g in gb.polys]
        h.update(("\n".join(lines) + "\n").encode())
    assert h.hexdigest() == "a00864a63443b75532946862f73f38467e6f07cd0023ea78cd7d2035587ef22b"


def test_bracket_antisymmetry():
    ch = build_chart(2)
    pm = poisson_matrix(ch)
    for a in ch.ring.variables:
        assert pm.bracket(a, a).is_zero()
        for b in ch.ring.variables:
            assert (pm.bracket(a, b) + pm.bracket(b, a)).is_zero()


def test_poisson_matrix_rejects_broken_antisymmetry():
    ch = build_chart(2)
    entries = [list(row) for row in poisson_matrix(ch).entries]
    PoissonMatrix(ch, tuple(map(tuple, entries)))  # the intact matrix passes
    assert not entries[1][0].is_zero()
    x21 = Polynomial(ch.ring, {(1, 0, 0): 1})
    broken = [
        # an entry equal to, not minus, its transpose
        ((1, 0), entries[0][1]),
        # a term missing from one side only
        ((1, 0), -entries[0][1] + x21),
        # a term dropped from one side: the term counts differ
        ((1, 0), Polynomial(ch.ring, {})),
        # the same terms in another ring
        ((1, 0), Polynomial(PolyRing(("a", "b", "c")), entries[1][0].terms)),
    ]
    for (a, b), p in broken:
        bad = [list(row) for row in entries]
        bad[a][b] = p
        with pytest.raises(ValueError, match=rf"not antisymmetric at \({a}, {b}\)"):
            PoissonMatrix(ch, tuple(map(tuple, bad)))
    bad = [list(row) for row in entries]
    bad[2][2] = x21
    with pytest.raises(ValueError, match="nonzero diagonal entry at 2"):
        PoissonMatrix(ch, tuple(map(tuple, bad)))


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


def test_default_scale_is_the_int_one():
    # scale=1 and scale=Fraction(1) give the same entries, coefficient types
    # included, on every SL3 chart
    for ch in all_charts(2):
        got, want = poisson_matrix(ch).entries, poisson_matrix(ch, Fraction(1)).entries
        for row, want_row in zip(got, want):
            for p, q in zip(row, want_row):
                assert [(e, type(c), c) for e, c in p.terms.items()] == [
                    (e, type(c), c) for e, c in q.terms.items()
                ]


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


def test_scan_cells_sl5_witness_counts():
    # every one of the 120 SL5 charts has a witness
    result = scan_cells(4)
    assert not any(rec["timeout"] for rec in result["charts"])
    assert Counter(rec["witness"] for rec in result["charts"]) == {
        "x31": 40,
        "x41": 40,
        "x42": 20,
        "x51": 12,
        "x52": 4,
        "x53": 4,
    }


def test_scan_cells_range():
    for n in (1, 6):
        with pytest.raises(ValueError, match="2 <= n <= 5"):
            scan_cells(n)


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


def test_partial_derivative_rejects_bad_index():
    ch = build_chart(2)
    f = parse_polynomial(ch.ring, "x21^2*x32")
    for index in (-1, 3):
        for g in (f, ch.ring.const(0)):
            with pytest.raises(ValueError, match="outside 0..2"):
                partial_derivative(g, index)


def test_unknown_variable_is_named():
    ch = build_chart(2)
    pm = poisson_matrix(ch)
    with pytest.raises(ValueError, match="unknown variable 'x12'"):
        pm.bracket("x21", "x12")
    with pytest.raises(ValueError, match="unknown variable 'x41'"):
        pm.bracket("x41", "x21")
    with pytest.raises(ValueError, match="unknown variable 'x41'"):
        variable_weight(ch, "x41")
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        substitute_zero(ch.ring.var("x21"), ["x31", "y"])


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

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_scan_pool_size(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(
        poissonlab,
        "_scan_one",
        lambda n, v, deadline: {"v": v, "witness": None, "generators": 0, "timeout": False},
    )
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    for cpus, workers in ((4, 64), (64, 64), (1, 64), (4, 1), (None, 8)):
        monkeypatch.setattr(poissonlab.os, "cpu_count", lambda: cpus)
        assert len(scan_cells(2, workers=workers)["charts"]) == 6
    # min(workers, cpus, 6 charts); a size of 1 runs in-process
    assert _RecordingPool.sizes == [4, 6]
    with pytest.raises(ValueError):
        scan_cells(2, workers=0)
