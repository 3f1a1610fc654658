"""Acceptance gate: one test per shipped guarantee, thirteen in all.

Every check is exact (integer or rational arithmetic, no tolerances).
Where a guarantee carries a runtime box the elapsed wall-clock time is
asserted too. Each test prints a detail block; run with -v for the
per-criterion pass/fail lines.
"""

import itertools
import random
import time

import pytest

from flagloci.cascade import build_cascade, verify_kostant
from flagloci.construct import build_top_pair
from flagloci.deodhar import (
    distinguished_subwords,
    q_minus_one_power,
    r_polynomial_deodhar,
    r_polynomial_recurrence,
)
from flagloci.gcr import (
    enumerate_gcr,
    is_gcr_cond3,
    is_gcr_cond4,
    is_gcr_cond6,
    verify_powerset_interval,
)
from flagloci.parabolic import gcr_p, verify_classes_distinct, verify_p_interval
from flagloci.poissonlab import (
    build_chart,
    degeneracy_ideal,
    nonreduced_witness,
    partial_derivative,
    poisson_matrix,
    scan_cells,
    verify_sl3_decomposition,
)
from flagloci.polyalg import (
    Ideal,
    buchberger,
    ideal_equal,
    intersect,
    membership,
    normal_form,
    parse_polynomial,
)
from flagloci.rootsys import build_root_system, orthogonal
from flagloci.weyl import (
    enumerate_group,
    inverse,
    is_involution,
    length,
    longest_element,
    multiply,
    perm_from_string,
    perm_string,
    reduced_word,
    reflection_length,
)

SWEEP_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")

_RS = {}


def rs_of(t):
    if t not in _RS:
        _RS[t] = build_root_system(t)
    return _RS[t]


_GCR = {}


def gcr_of(t):
    if t not in _GCR:
        _GCR[t] = enumerate_gcr(rs_of(t))
    return _GCR[t]


def test_c01_three_characterizations_agree_on_sweep():
    """Subword, involution-factorization, and kernel-dimension tests give
    the same verdict on every ordered pair of nine groups; box 300 s."""
    t0 = time.monotonic()
    checked = 0
    for t in SWEEP_TYPES:
        rs = rs_of(t)
        els = enumerate_group(rs)
        for v in els:
            for w in els:
                c3 = is_gcr_cond3(v, w)
                c4 = is_gcr_cond4(v, w)
                c6 = is_gcr_cond6(v, w) is not None
                assert c3 == c4 == c6, (t, perm_string(v), perm_string(w))
                checked += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 1: {checked} ordered pairs across {len(SWEEP_TYPES)} groups, "
          f"zero discrepancies, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_c02_s3_counts():
    """S3: 14 pairs = 6 diagonal + 8 covering, none with d >= 2, and the
    rank-2 A root system has no orthogonal pair of positive roots."""
    poset = gcr_of("A2")
    counts = poset.counts_by_d()
    assert counts == {0: 6, 1: 8}
    assert sum(counts.values()) == 14
    assert max(counts) == 1
    rs = rs_of("A2")
    for a, b in itertools.combinations(rs.positive_roots, 2):
        assert not orthogonal(rs, a, b)
    print("criterion 2: S3 counts 14 = 6 + 8, no d>=2, no orthogonal root pair")


S4_D2_PAIRS = {
    ("1234", "2143"),
    ("1324", "2413"),
    ("1342", "2431"),
    ("3124", "4213"),
    ("3142", "4231"),
    ("3412", "4321"),
    ("1324", "3142"),
    ("2413", "4231"),
    ("1423", "4132"),
    ("2143", "3412"),
    ("2314", "3241"),
}


def test_c03_s4_tables():
    """S4: the eleven d=2 pairs match the published tables as sets, 14
    maximal d=1 pairs, 25 maximal pairs, top d = 2 = cascade size."""
    poset = gcr_of("A3")
    d2 = {(perm_string(p.v), perm_string(p.w)) for p in poset.pairs if p.d == 2}
    assert d2 == S4_D2_PAIRS
    assert len(d2) == 11
    maximal = poset.maximal_pairs()
    assert len(maximal) == 25
    assert sum(1 for p in maximal if p.d == 1) == 14
    top = max(p.d for p in maximal)
    assert top == 2 == len(build_cascade(rs_of("A3")).roots)
    print("criterion 3: 11 d=2 pairs match, 14 maximal d=1, 25 maximal, top d=2")


def test_c04_powerset_intervals_sweep():
    """Every witnessed pair in the sweep groups has |[v,w]| = 2^d with all
    w_K distinct and a boolean Hasse diagram."""
    t0 = time.monotonic()
    total = 0
    for t in SWEEP_TYPES:
        for p in gcr_of(t).pairs:
            assert verify_powerset_interval(p), (t, perm_string(p.v), perm_string(p.w))
            total += 1
    print(f"criterion 4: {total} boolean intervals verified, "
          f"{time.monotonic()-t0:.1f}s")


CASCADE_SIZES = {
    "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3,
    "B2": 2, "B3": 3, "B4": 4,
    "C3": 3, "C4": 4,
    "D4": 4, "D5": 4,
    "E6": 4, "E7": 7, "E8": 8,
    "F4": 4, "G2": 2,
}


def test_c05_cascade_suite():
    """Cascade identities for seventeen types: product of the cascade
    reflections is w0, the E-sets partition the positive roots, |E| =
    2h-3, perfect twin matching, |B| = reflection length of w0 with the
    classical values; box 60 s."""
    t0 = time.monotonic()
    for t, m in CASCADE_SIZES.items():
        rs = rs_of(t)
        report = verify_kostant(rs, build_cascade(rs))
        assert report["size"] == m, (t, report["size"], m)
        assert report["reflection_length_w0"] == m
    elapsed = time.monotonic() - t0
    print(f"criterion 5: {len(CASCADE_SIZES)} cascade suites verified, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_c06_r_polynomials():
    """R-polynomial equals (q-1)^d on every witnessed sweep pair; the
    subword sum equals the descent recurrence on all pairs of four small
    groups and on 500 seeded random pairs of B3."""
    for t in SWEEP_TYPES:
        for p in gcr_of(t).pairs:
            r = r_polynomial_deodhar(p.v, p.w)
            assert r.coeffs == q_minus_one_power(p.d).coeffs, (t, p.d)
    full = 0
    for t in ("A2", "A3", "B2", "G2"):
        els = enumerate_group(rs_of(t))
        for v in els:
            for w in els:
                a = r_polynomial_deodhar(v, w)
                b = r_polynomial_recurrence(v, w)
                assert a.coeffs == b.coeffs
                full += 1
    els = enumerate_group(rs_of("B3"))
    rng = random.Random(0)
    for _ in range(500):
        v, w = rng.choice(els), rng.choice(els)
        assert r_polynomial_deodhar(v, w).coeffs == r_polynomial_recurrence(v, w).coeffs
    print(f"criterion 6: (q-1)^d on all sweep pairs, two routes agree on "
          f"{full} exhaustive + 500 random pairs")


def test_c07_distinguished_subword_statistics():
    """Each witnessed pair admits exactly one distinguished subword and it
    has m = 0; every distinguished subword of any pair satisfies
    n + 2m = l(w) - l(v) and n >= reflection length of v w^{-1}."""
    unique = 0
    for t in SWEEP_TYPES:
        rs = rs_of(t)
        for p in gcr_of(t).pairs:
            subs = distinguished_subwords(rs, reduced_word(p.w), p.v)
            assert len(subs) == 1, (t, perm_string(p.v), perm_string(p.w))
            assert subs[0].m_stat == 0
            unique += 1
    checked = 0
    for t in ("A2", "A3", "B2", "G2"):
        rs = rs_of(t)
        els = enumerate_group(rs)
        for w in els:
            word = reduced_word(w)
            for v in els:
                for ds in distinguished_subwords(rs, word, v):
                    assert ds.n_stat + 2 * ds.m_stat == length(w) - length(v)
                    assert ds.n_stat >= reflection_length(multiply(v, inverse(w)))
                    checked += 1
    print(f"criterion 7: {unique} unique m=0 subwords, statistics verified "
          f"on {checked} distinguished subwords")


def test_c08_parabolic_suite_a3():
    """For A3 and each of the eight subsets J: quotient-side pairs have
    parabolic interval equal to the Bruhat interval (a power set), the 3^d
    derived classes are pairwise distinct, and every witness root leaves
    the Levi subsystem under w^{-1}."""
    rs = rs_of("A3")
    idx = (1, 2, 3)
    total = 0
    n_subsets = 0
    for k in range(len(idx) + 1):
        for J in itertools.combinations(idx, k):
            n_subsets += 1
            for p in gcr_p(rs, J):
                assert verify_p_interval(p, J)
                assert verify_classes_distinct(p, J)
                total += 1
    assert n_subsets == 8
    print(f"criterion 8: 8 subsets J, {total} quotient-side pair checks")


CONSTRUCT_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5",
    "C3", "C4", "C5",
    "D4", "D5", "D6",
    "E6", "E7", "E8",
    "F4", "G2",
)


def test_c09_constructive_pipeline():
    """build_top_pair succeeds on all 23 listed simple types with
    d = cascade size (E7 gives 7, E8 gives 8, box 10 s without group
    enumeration); on the enumerable sweep groups d equals the maximum
    dimension among maximal pairs."""
    for t in CONSTRUCT_TYPES:
        rs = rs_of(t)
        t0 = time.monotonic()
        pair = build_top_pair(rs)
        elapsed = time.monotonic() - t0
        assert pair.d == len(build_cascade(rs).roots), t
        if t == "E7":
            assert pair.d == 7
        if t == "E8":
            assert pair.d == 8
            assert elapsed < 10.0, f"E8 took {elapsed:.1f}s"
    for t in SWEEP_TYPES:
        pair = build_top_pair(rs_of(t))
        top = max(p.d for p in gcr_of(t).maximal_pairs())
        assert pair.d == top, t
    print(f"criterion 9: {len(CONSTRUCT_TYPES)} types built, sweep maxima match")


def test_c10_involution_reflection_length_bound():
    """Over all involutions of each sweep group the reflection length is
    at most that of the longest element."""
    total = 0
    for t in SWEEP_TYPES:
        rs = rs_of(t)
        bound = reflection_length(longest_element(rs))
        for w in enumerate_group(rs):
            if is_involution(w):
                assert reflection_length(w) <= bound
                total += 1
    print(f"criterion 10: {total} involutions within the bound")


def test_c11_poisson_sl3():
    """SL3 big cell: the three bracket polynomials match the displayed
    values exactly; x31^2 lies in the ideal and x31 does not; the ideal
    equals the intersection of the three displayed components; the cell
    scan finds witnesses exactly on charts 123 and 321; box 60 s."""
    t0 = time.monotonic()
    ch = build_chart(2)
    pm = poisson_matrix(ch)
    assert str(pm.bracket("x31", "x21")) == "-x21*x31"
    assert str(pm.bracket("x32", "x21")) == "x21*x32 - 2*x31"
    assert str(pm.bracket("x32", "x31")) == "-x31*x32"
    ideal = degeneracy_ideal(ch).ideal
    x31 = ch.ring.var("x31")
    assert membership(x31 * x31, ideal)
    assert not membership(x31, ideal)
    assert verify_sl3_decomposition() is True
    # independent route: rebuild the displayed intersection by hand
    r = ch.ring
    comp1 = Ideal(r, (r.var("x32"), x31))
    comp2 = Ideal(r, (x31, r.var("x21")))
    comp3 = Ideal(
        r,
        tuple(
            parse_polynomial(r, s)
            for s in ("x32^2", "x31*x32", "x21*x32 - 2*x31", "x21*x31", "x21^2")
        ),
    )
    meet = intersect(intersect(comp1, comp2), comp3)
    assert ideal_equal(ideal, meet)
    scan = scan_cells(2)
    assert scan["witness_charts"] == ["123", "321"]
    assert all(not rec["timeout"] for rec in scan["charts"])
    elapsed = time.monotonic() - t0
    print(f"criterion 11: SL3 brackets, ideal, decomposition, scan verified, "
          f"{elapsed:.1f}s")
    assert elapsed < 60.0


SL4_BIVECTOR = {
    ("x31", "x21"): "-x21*x31",
    ("x32", "x21"): "x21*x32 - 2*x31",
    ("x41", "x21"): "-x21*x41",
    ("x42", "x21"): "x21*x42 - 2*x41",
    ("x43", "x21"): "0",
    ("x32", "x31"): "-x31*x32",
    ("x41", "x31"): "-x31*x41",
    ("x42", "x31"): "-2*x32*x41",
    ("x43", "x31"): "x31*x43 - 2*x41",
    ("x41", "x32"): "0",
    ("x42", "x32"): "-x32*x42",
    ("x43", "x32"): "x32*x43 - 2*x42",
    ("x42", "x41"): "-x41*x42",
    ("x43", "x41"): "-x41*x43",
    ("x43", "x42"): "-x42*x43",
}

SL4_COMPONENT_1 = ("x42", "x41", "x32", "x31")
SL4_COMPONENT_2 = ("x43", "x42", "x41", "x31", "x21")
SL4_COMPONENT_3 = (
    "x43^2",
    "x42*x43",
    "x41*x43",
    "x32*x43 - 2*x42",
    "x31*x43 - 2*x41",
    "x41*x42",
    "x32*x42",
    "x21*x42 - 2*x41",
    "x32*x41",
    "x31*x41",
    "x21*x41",
    "x32^2",
    "x31*x32",
    "x21*x32 - 2*x31",
    "x21*x31",
    "x21^2",
)


def test_c12_poisson_sl4():
    """SL4 big cell: the 13-term bivector matches the display exactly, the
    ideal is contained in each displayed component, the Jacobi identity
    holds symbolically, and the full intersection equality holds via the
    elimination route (stretch, box 600 s). The remaining required clause
    names x21 as the witness; exact computation shows x21^2 is not in the
    ideal, so that clause fails and this test reports it honestly."""
    t0 = time.monotonic()
    ch = build_chart(3)
    pm = poisson_matrix(ch)
    for (a, b), text in SL4_BIVECTOR.items():
        assert str(pm.bracket(a, b)) == text, (a, b)
    nonzero = sum(1 for v in SL4_BIVECTOR.values() if v != "0")
    assert nonzero == 13

    ideal = degeneracy_ideal(ch).ideal
    r = ch.ring
    comp1 = Ideal(r, tuple(parse_polynomial(r, s) for s in SL4_COMPONENT_1))
    comp2 = Ideal(r, tuple(parse_polynomial(r, s) for s in SL4_COMPONENT_2))
    comp3 = Ideal(r, tuple(parse_polynomial(r, s) for s in SL4_COMPONENT_3))
    for comp in (comp1, comp2, comp3):
        for g in ideal.generators:
            assert membership(g, comp)

    # Jacobi identity, symbolically, over all coordinate triples
    nv = len(r.variables)

    def brk(f, g):
        out = r.const(0)
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

    xs = [r.var(v) for v in r.variables]
    for a in range(nv):
        for b in range(a + 1, nv):
            for c in range(b + 1, nv):
                jac = (
                    brk(xs[a], brk(xs[b], xs[c]))
                    + brk(xs[b], brk(xs[c], xs[a]))
                    + brk(xs[c], brk(xs[a], xs[b]))
                )
                assert jac.is_zero()

    # stretch: full intersection equality by variable elimination
    meet = intersect(intersect(comp1, comp2), comp3)
    assert ideal_equal(ideal, meet)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 12: bivector, containments, Jacobi, and the stretch "
          f"intersection equality all hold, {elapsed:.1f}s")

    # Required witness clause: x21 with x21^2 in I. Three independent
    # routes show x21^2 is NOT in I, so the clause is unsatisfiable:
    #   1. the Groebner normal form of x21^2 is nonzero;
    #   2. every monomial of x21^2 avoids the component (x42,x41,x32,x31),
    #      yet I was just verified to be contained in that component, so
    #      x21^2 in I would force x21^2 into it - contradiction;
    #   3. the intersection equality above pins I exactly, and x21^2
    #      visibly fails membership in the first factor.
    # The actual first-variable witness (f^2 in I, f not in I) is x31.
    gb = buchberger(ideal)
    x21, x31 = r.var("x21"), r.var("x31")
    nf_sq = normal_form(x21 * x21, gb.polys)
    assert not nf_sq.is_zero()
    assert not membership(x21 * x21, comp1)
    assert membership(x31 * x31, ideal)
    assert not membership(x31, ideal)
    assert nonreduced_witness(ch) == "x31"
    pytest.fail(
        "criterion 12: required clause 'witness x21 (x21^2 in I, x21 not in I)' "
        "is unsatisfiable: the Groebner normal form of x21^2 modulo I is "
        f"'{nf_sq}' (nonzero), and x21^2 lies outside the component "
        "(x42,x41,x32,x31) that was verified to contain I. The genuine "
        "first-variable witness is x31 (x31^2 in I, x31 not in I). All other "
        "clauses of this criterion pass (bivector display, containment in all "
        "three components, Jacobi identity, stretch intersection equality)."
    )


def test_c13_sl4_cell_scan_report():
    """Report-only survey of the SL4 per-cell scan: witness-chart count and
    symmetry-orbit count are printed and cross-checked for internal
    consistency, with no external count asserted."""
    scan = scan_cells(3)
    assert all(not rec["timeout"] for rec in scan["charts"])
    witnesses = scan["witness_charts"]
    assert witnesses == sorted(witnesses)
    assert len(witnesses) == len(set(witnesses))

    rs = rs_of("A3")
    w0 = longest_element(rs)
    wset = set(witnesses)

    def orbit(v_str):
        v = perm_from_string(rs, v_str)
        images = {
            perm_string(v),
            perm_string(multiply(w0, v)),
            perm_string(multiply(v, w0)),
            perm_string(multiply(w0, multiply(v, w0))),
        }
        return frozenset(images)

    orbits = {orbit(v) for v in witnesses}
    # the witness set is closed under the four symmetries and inversion
    for v_str in witnesses:
        assert orbit(v_str) <= wset
        inv = perm_string(inverse(perm_from_string(rs, v_str)))
        assert inv in wset
    print(f"criterion 13: {len(witnesses)} witness charts in "
          f"{len(orbits)} symmetry orbits (report only); charts: "
          f"{', '.join(witnesses)}")
