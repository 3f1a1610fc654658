"""Exact multivariate polynomials over the rationals: orders, arithmetic,
parsing, Groebner bases, and the ideal operations built on them."""

import heapq
import itertools
import random
import re
import sys
import time
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy.polys.orderings import ProductOrder, grevlex

from flagloci import polyalg
from flagloci.poissonlab import build_chart, degeneracy_ideal, nonreduced_witness
from flagloci.polyalg import (
    Ideal,
    PolyRing,
    PolyTimeout,
    Polynomial,
    buchberger,
    ideal_equal,
    intersect,
    membership,
    normal_form,
    parse_polynomial,
    radical_membership,
)


def ring(*names, order="grevlex"):
    return PolyRing(tuple(names), order=order)


def test_grevlex_comparisons():
    r = ring("x", "y", "z")
    x, y, z = (r.var(n) for n in "xyz")
    assert (x * z).leading()[0] < (y * y).leading()[0] or r.key(
        (x * z).leading()[0]
    ) < r.key((y * y).leading()[0])
    # total degree first
    assert r.key((2, 0, 0)) > r.key((0, 1, 0))
    # ties broken by smallest exponent on the last variable
    assert r.key((1, 0, 1)) < r.key((0, 2, 0))
    assert r.key((1, 1, 0)) > r.key((0, 2, 0))


def test_lex_comparisons():
    r = ring("x", "y", order="lex")
    assert r.key((1, 0)) > r.key((0, 5))


def test_arithmetic_round_trip():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    p = (x + y) * (x - y)
    assert str(p) == "x^2 - y^2"
    q = p - x * x + y * y
    assert q.is_zero()
    assert str(x * x - (x * y).scale(2 * Fraction(1, 2)) + y * y) == "x^2 - x*y + y^2"


def test_parse_round_trip():
    r = ring("x21", "x31", "x32")
    for text in ("x21*x32 - 2*x31", "x31^2", "1/2*x21 + 7", "-x21 - x31"):
        p = parse_polynomial(r, text)
        assert parse_polynomial(r, str(p)) - p == r.const(0)


def test_parse_rejects_garbage():
    r = ring("x", "y")
    with pytest.raises(ValueError):
        parse_polynomial(r, "x + w")
    with pytest.raises(ValueError):
        parse_polynomial(r, "x + ")
    with pytest.raises(ValueError):
        parse_polynomial(r, "x y")


def test_int_and_fraction_coefficients_agree():
    r = ring("x", "y")
    e = (1, 2)
    a, b = Polynomial(r, {e: 1}), Polynomial(r, {e: Fraction(1)})
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "x*y^2"
    c, d = Polynomial(r, {e: -3, (0, 0): 2}), Polynomial(r, {e: Fraction(-3), (0, 0): Fraction(2)})
    assert c == d and hash(c) == hash(d) and str(c) == str(d) == "-3*x*y^2 + 2"


def test_coefficients_stay_int_until_a_division():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    p = (x.scale(3) + y) * (x - r.const(Fraction(4, 2)))
    assert all(type(c) is int for c in p.terms.values())
    assert all(type(c) is int for c in (p.scale(Fraction(6, 3)) - y).terms.values())
    half = x.scale(2).monic()
    assert half.terms == {(1, 0): 1} and type(half.terms[(1, 0)]) is int
    third = (x.scale(3) + y).monic()
    assert third.terms == {(1, 0): 1, (0, 1): Fraction(1, 3)}
    assert type(third.terms[(0, 1)]) is Fraction
    assert str(normal_form(x * y.scale(2), (y.scale(4) + r.const(2),))) == "-x"


def test_lex_groebner_frozen():
    r = ring("x", "y", order="lex")
    gens = [parse_polynomial(r, t) for t in ("x^2 + y^2 - 1", "x - y")]
    gb = buchberger(Ideal(r, tuple(gens)))
    assert [str(p) for p in gb.polys] == ["y^2 - 1/2", "x - y"]


def test_membership_sl3_ideal():
    r = ring("x21", "x31", "x32")
    gens = tuple(
        parse_polynomial(r, t)
        for t in ("x21*x31", "x21*x32 - 2*x31", "x31*x32")
    )
    ideal = Ideal(r, gens)
    x21, x31 = r.var("x21"), r.var("x31")
    assert membership(x31 * x31, ideal)
    assert not membership(x31, ideal)
    assert not membership(x21 * x21, ideal)
    assert radical_membership(x31, ideal)
    assert not radical_membership(x21 + x31, ideal)


def test_intersection_of_coordinate_ideals():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    meet = intersect(Ideal(r, (x,)), Ideal(r, (y,)))
    assert ideal_equal(meet, Ideal(r, (x * y,)))


def test_ideal_equal_detects_difference():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    assert not ideal_equal(Ideal(r, (x,)), Ideal(r, (x * y,)))
    assert ideal_equal(Ideal(r, (x, y)), Ideal(r, (y, x + y)))


def test_radical_membership_nontrivial():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    ideal = Ideal(r, (x * x * y, y * y))
    assert radical_membership(y, ideal)
    assert radical_membership(x * y, ideal)
    assert not radical_membership(x, ideal)


def test_buchberger_deterministic():
    r = ring("x21", "x31", "x32")
    gens = tuple(
        parse_polynomial(r, t)
        for t in ("x21*x31", "x21*x32 - 2*x31", "x31*x32")
    )
    a = buchberger(Ideal(r, gens))
    b = buchberger(Ideal(r, gens))
    assert [str(p) for p in a.polys] == [str(p) for p in b.polys]


def test_timeout_raises():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    with pytest.raises(PolyTimeout):
        buchberger(Ideal(r, (x * x + y, y * y + x)), deadline=time.monotonic() - 1.0)


def sympy_order(order):
    """The sympy form of a ring order: ("block", k) is grevlex on the first
    k variables, ties broken by grevlex on the rest."""
    if not isinstance(order, tuple):
        return order
    k = order[1]
    return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))


def sympy_gb(var_names, texts, order):
    syms = sympy.symbols(" ".join(var_names))
    if not isinstance(syms, tuple):
        syms = (syms,)
    polys = [sympy.sympify(t.replace("^", "**")) for t in texts]
    return sympy.groebner(polys, *syms, order=sympy_order(order))


def to_sympy(p):
    return sympy.sympify(str(p).replace("^", "**"))


def test_groebner_matches_sympy():
    cases = [
        (("x", "y"), ("x^2 + y^2 - 1", "x - y"), "grevlex"),
        (("x", "y"), ("x^2 + y^2 - 1", "x - y"), "lex"),
        (("x21", "x31", "x32"), ("x21*x31", "x21*x32 - 2*x31", "x31*x32"), "grevlex"),
        (("x", "y", "z"), ("x*y - z", "y*z - x", "x*z - y"), "grevlex"),
        # non-unit leading and rational input coefficients: int -> Fraction
        (("x", "y"), ("3*x^2 - 1/2*y", "2*x*y + 5/3"), "grevlex"),
        (("x", "y"), ("3*x^2 - 1/2*y", "2*x*y + 5/3"), "lex"),
        (("x", "y", "z"), ("2*x*y - 3*z", "5*y*z + 1/4*x", "7*x*z - 2/3*y^2"), "grevlex"),
    ]
    # the three SL4 degeneracy ideals with the longest Buchberger runs
    for v in ("1234", "1423", "4132"):
        ideal = degeneracy_ideal(build_chart(3, v)).ideal
        texts = tuple(str(g) for g in ideal.generators)
        cases.append((ideal.ring.variables, texts, "grevlex"))
    for names, texts, order in cases:
        assert_matches_sympy(names, texts, order)


def assert_matches_sympy(names, texts, order):
    r = ring(*names, order=order)
    gb = buchberger(Ideal(r, tuple(parse_polynomial(r, t) for t in texts)))
    ref = sympy_gb(names, texts, order)
    mine = {to_sympy(p) for p in gb.polys}
    theirs = set()
    for g in ref.exprs:
        gp = sympy.Poly(g, *ref.gens)
        lc = gp.coeff_monomial(gp.LM(order=sympy_order(order)))
        theirs.add(sympy.expand(g / lc))
    assert mine == theirs
    return gb


def test_groebner_matches_sympy_on_unit_and_intersection():
    # a unit ideal: the reduced basis is (1)
    gb = assert_matches_sympy(("x", "y"), ("x*y - 1", "x"), "grevlex")
    assert [str(p) for p in gb.polys] == ["1"]
    assert_matches_sympy(("x", "y", "z"), ("x^2 + y", "x*y - 1", "y^2 + x*z"), "lex")
    # the generators that `intersect` returns, fed back into both engines
    r = ring("x", "y", "z")
    x, y, z = (r.var(n) for n in "xyz")
    for a, b in (
        ((x, y * y), (x * x, y)),
        ((x * y - z, y * z), (x * z, y * y - x)),
    ):
        meet = intersect(Ideal(r, a), Ideal(r, b))
        assert_matches_sympy(r.variables, tuple(str(g) for g in meet.generators), "grevlex")


def test_block_order_eliminates():
    r = PolyRing(("t", "x", "y"), order=("block", 1))
    t, x, y = (r.var(n) for n in ("t", "x", "y"))
    # t*x and (1-t)*y generate; the t-free part of the basis is (x*y)
    gb = buchberger(Ideal(r, (t * x, (r.const(1) - t) * y)))
    free = [p for p in gb.polys if all(e[0] == 0 for e in p.terms)]
    assert [str(p) for p in free] == ["x*y"]


def test_normal_form_linearity():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    ideal = Ideal(r, (x * x - y,))
    gb = buchberger(ideal)
    f = x * x * x + x * y
    g = y * y + x
    from flagloci.polyalg import normal_form

    nf = normal_form
    assert str(nf(f + g, gb.polys)) == str(nf(nf(f, gb.polys) + nf(g, gb.polys), gb.polys))
    assert nf(x * x - y, gb.polys).is_zero()


def radical_oracle(f, ideal):
    """From scratch: lift the raw generators into a grevlex ring with one
    more variable y, add 1 - y*f, and ask whether the basis is (1)."""
    names = ideal.ring.variables + ("_y",)
    big = PolyRing(names, "grevlex")
    pad = lambda p: Polynomial(big, {e + (0,): c for e, c in p.terms.items()})
    gens = [pad(g) for g in ideal.generators]
    gens.append(big.const(1) - big.var("_y") * pad(f))
    gb = buchberger(Ideal(big, tuple(gens)))
    return [str(p) for p in gb.polys] == ["1"]


def test_radical_membership_matches_oracle_on_sl4_charts():
    seen = set()
    for p in itertools.permutations("1234"):
        ideal = degeneracy_ideal(build_chart(3, "".join(p))).ideal
        for name in ideal.ring.variables:
            v = ideal.ring.var(name)
            for f in (v, v * v):
                got = radical_membership(f, ideal)
                assert got == radical_oracle(f, ideal), ("".join(p), str(f))
                seen.add(got)
    assert seen == {True, False}


def random_poly(r, rng):
    n = len(r.variables)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, Fraction(1, 2), 5])
    return Polynomial(r, terms)


@pytest.mark.parametrize("order", ["lex", ("block", 1), ("block", 2)], ids=str)
def test_radical_membership_matches_oracle_on_random_ideals(order):
    rng = random.Random(f"radical:{order}")
    r = ring("x", "y", "z", order=order)
    seen = set()
    for _ in range(40):
        gens = [random_poly(r, rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a pure power among the generators makes some answers True
            gens.append(r.var(rng.choice(r.variables)) * r.var(rng.choice(r.variables)))
        ideal = Ideal(r, tuple(gens))
        for f in [r.var(n) for n in r.variables] + [random_poly(r, rng)]:
            got = radical_membership(f, ideal)
            assert got == radical_oracle(f, ideal), ([str(g) for g in gens], str(f))
            seen.add(got)
    assert seen == {True, False}


def mostly_monomial(r, rng):
    """2 to 5 generators, each a monomial of degree 1 to 3 with
    probability 0.7, else a `random_poly`."""
    n = len(r.variables)
    gens = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.7:
            e = [0] * n
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(n)] += 1
            gens.append(Polynomial(r, {tuple(e): rng.choice([-2, 1, 3, Fraction(1, 2)])}))
        else:
            gens.append(random_poly(r, rng))
    return gens


ORDERS = ["grevlex", "lex", ("block", 1), ("block", 2)]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_mostly_monomial_ideals_match_sympy(order):
    rng = random.Random(f"monomial:{order}")
    names = ("x", "y", "z", "w")
    r = ring(*names, order=order)
    monomials = total = 0
    for _ in range(25):
        gens = mostly_monomial(r, rng)
        monomials += sum(len(g.terms) == 1 for g in gens)
        total += len(gens)
        assert_matches_sympy(names, tuple(str(g) for g in gens), order)
    assert 0.6 < monomials / total < 0.85


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_radical_membership_matches_oracle_on_mostly_monomial_ideals(order):
    rng = random.Random(f"monomial-radical:{order}")
    r = ring("x", "y", "z", order=order)
    seen = set()
    for _ in range(30):
        ideal = Ideal(r, tuple(mostly_monomial(r, rng)))
        for f in [r.var(n) for n in r.variables] + [random_poly(r, rng)]:
            got = radical_membership(f, ideal)
            assert got == radical_oracle(f, ideal), ([str(g) for g in ideal.generators], str(f))
            seen.add(got)
    assert seen == {True, False}


# Minimalization inputs: each tuple of texts has the stated leads in every
# order of ORDERS on (x, y, z).
MINIMALIZATION_CASES = [
    # three generators share the leading monomial x*y
    ("x*y + z", "2*x*y - z^2", "x*y - x + 1"),
    # a chain of divisible leads: x*y | x*y*z | x^2*y*z
    ("x^2*y*z - z", "x*y*z + y", "x*y + z^2"),
]


def lead(p):
    return p.leading()[0]


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_minimalization_inputs_match_sympy(order):
    r = ring("x", "y", "z", order=order)
    shared, chain = MINIMALIZATION_CASES
    assert {lead(parse_polynomial(r, t)) for t in shared} == {(1, 1, 0)}
    assert [lead(parse_polynomial(r, t)) for t in chain] == [(2, 1, 1), (1, 1, 1), (1, 1, 0)]
    for texts in (shared, chain, shared + chain):
        assert_matches_sympy(r.variables, texts, order)


@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_radical_completion_with_new_leads_over_prefix_leads_matches_sympy(
    monkeypatch, order
):
    # 1 - y*f has the lead y*lead(f); with lead(f) a lead of the kept basis,
    # the minimalization of the completion meets a new member whose lead a
    # lifted prefix lead divides
    calls = []
    complete = polyalg._complete

    def recorder(ring, prefix, new, deadline):
        calls.append((ring, prefix, new, complete(ring, prefix, new, deadline)))
        return calls[-1][3]

    monkeypatch.setattr(polyalg, "_complete", recorder)
    r = ring("x", "y", "z", order=order)
    gens = ("x*y + z", "x^2 - y", "z^2")
    ideal = Ideal(r, tuple(parse_polynomial(r, t) for t in gens))
    x, z = r.var("x"), r.var("z")
    seen = set()
    for g in buchberger(ideal).polys:
        for f in (g + r.const(1), x * g + z):
            got = radical_membership(f, ideal)
            big, prefix, new, gb = calls[-1]
            assert got == radical_oracle(f, ideal), str(f)
            seen.add(got)
            assert len(new) == 1 and any(
                all(a <= b for a, b in zip(lead(p), lead(new[0]))) for p in prefix
            )
            if not got:
                texts = tuple(str(p) for p in (*prefix, *new))
                mine = assert_matches_sympy(big.variables, texts, order)
                assert mine.polys == gb.polys
    assert seen == {True, False}


def test_monomial_ideal_builds_no_s_polynomial(monkeypatch):
    # every pair of two monomials is settled when it is made, so the only
    # reductions are the (empty) tails of the kept members
    reductions = []
    reduce_terms = polyalg._reduce_terms

    def recorder(p, *args):
        reductions.append(dict(p))
        return reduce_terms(p, *args)

    monkeypatch.setattr(polyalg, "_reduce_terms", recorder)
    r = ring("x", "y", "z")
    gens = tuple(parse_polynomial(r, t) for t in ("x^2*y", "x*y^2", "y*z", "2*x*z^2", "y^3"))
    gb = buchberger(Ideal(r, gens))
    assert [str(p) for p in gb.polys] == ["y*z", "x*z^2", "y^3", "x*y^2", "x^2*y"]
    assert reductions == [{}] * len(gb.polys)


def record_pops(monkeypatch):
    """Wrap the heap pop of the completion loop: each popped pair is
    recorded with its two basis members, read off the loop's ``basis``."""
    pops = []

    def heappop(heap):
        item = heapq.heappop(heap)
        i, j = item[1]
        basis = sys._getframe(1).f_locals["basis"]
        pops.append((basis[i], basis[j]))
        return item

    monkeypatch.setattr(
        polyalg,
        "heapq",
        types.SimpleNamespace(heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop),
    )
    return pops


def test_no_popped_pair_is_coprime_or_two_monomials_on_sl4_charts(monkeypatch):
    pops = record_pops(monkeypatch)
    for p in itertools.permutations("1234"):
        buchberger(degeneracy_ideal(build_chart(3, "".join(p))).ideal)
    assert pops  # the wrapper sees the loop
    for f, g in pops:
        (ef, _), (eg, _) = f.leading(), g.leading()
        assert any(a and b for a, b in zip(ef, eg)), (str(f), str(g))
        assert len(f.terms) > 1 or len(g.terms) > 1, (str(f), str(g))


def record_reductions(monkeypatch):
    """Wrap `_reduce_terms`: each call appends whether its remainder is
    empty."""
    zeros = []
    reduce_terms = polyalg._reduce_terms

    def recorder(p, *args):
        rem = reduce_terms(p, *args)
        zeros.append(not rem)
        return rem

    monkeypatch.setattr(polyalg, "_reduce_terms", recorder)
    return zeros


def test_witness_searches_make_frozen_reductions(monkeypatch):
    # the number of reductions, and of those to zero, changes with any
    # chain-criterion decision even where the bases and witnesses do not
    zeros = record_reductions(monkeypatch)

    def witness_reductions(n, charts):
        count = zero = 0
        for v in charts:
            chart = build_chart(n, v)
            di = degeneracy_ideal(chart)
            zeros.clear()
            nonreduced_witness(chart, 60.0, di)
            count, zero = count + len(zeros), zero + sum(zeros)
        return count, zero

    sl4 = ["".join(p) for p in itertools.permutations("1234")]
    assert witness_reductions(3, sl4) == (638, 422)
    assert witness_reductions(6, [None]) == (821, 734)


def test_completion_state_stays_small_on_the_sl7_big_cell():
    # the loop records only its pending pairs; a record of every treated
    # pair, settled ones included, peaked at about 1.6 MB on this ideal
    ideal = degeneracy_ideal(build_chart(6)).ideal
    tracemalloc.start()
    try:
        buchberger(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6


def record_completions(monkeypatch):
    """Replace the private completion loop by a recorder of its calls
    (the number of prefix members and the new generators)."""
    calls = []
    complete = polyalg._complete

    def recorder(ring, prefix, new, deadline):
        calls.append((len(prefix), tuple(new)))
        return complete(ring, prefix, new, deadline)

    monkeypatch.setattr(polyalg, "_complete", recorder)
    return calls


def test_one_completion_serves_witness_and_radical(monkeypatch):
    calls = record_completions(monkeypatch)
    chart = build_chart(3)
    di = degeneracy_ideal(chart)
    name = nonreduced_witness(chart, 60.0, di)
    assert name == "x31"
    assert radical_membership(chart.ring.var(name), di.ideal)
    # one from-scratch completion of the raw generators, then the radical
    # starts from the kept basis with 1 - y*f as its only new member
    assert [n for n, _ in calls] == [0, len(buchberger(di.ideal).polys)]
    assert calls[0][1] == di.ideal.generators
    assert len(calls[1][1]) == 1
    assert len(calls) == 2


def test_ideal_equal_completes_each_ideal_once(monkeypatch):
    calls = record_completions(monkeypatch)
    r = ring("x", "y", "z")
    x, y, z = (r.var(n) for n in "xyz")
    a = Ideal(r, (x * y - z, y * z, x * z))
    b = Ideal(r, (y * z, x * y - z, x * z + y * z))
    assert ideal_equal(a, b)
    assert Counter(new for _, new in calls) == Counter([a.generators, b.generators])
    assert all(n == 0 for n, _ in calls)
    assert membership(x * y * y - y * z, a) and len(calls) == 2


def test_kept_basis_leaves_eq_hash_repr_alone():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    kept = Ideal(r, (x * x - y, x * y))
    gb = buchberger(kept)
    assert buchberger(kept) is gb
    fresh = Ideal(r, (x * x - y, x * y))
    assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
    assert "_basis" not in repr(kept)


def test_expired_deadline_raises_in_every_case():
    r = ring("x", "y")
    x, y = r.var("x"), r.var("y")
    past = time.monotonic() - 1.0
    kept = Ideal(r, (x * x, x * y - y))
    buchberger(kept)
    with pytest.raises(PolyTimeout):
        buchberger(kept, deadline=past)
    with pytest.raises(PolyTimeout):
        membership(x, kept, deadline=past)
    # every pair coprime: no pair is ever reduced
    with pytest.raises(PolyTimeout):
        buchberger(Ideal(r, (x * x + y, y * y + x)), deadline=past)
    with pytest.raises(PolyTimeout):
        radical_membership(x, Ideal(r, (x * x,)), deadline=past)
    with pytest.raises(PolyTimeout):
        radical_membership(x, kept, deadline=past)


def test_unit_ideal_stops_at_a_constant(monkeypatch):
    r = ring("x", "y", "z")
    x, y, z = (r.var(n) for n in "xyz")
    one = r.const(1)
    for gens in ((x * y - one, x), (x - one, x * y, y - one), (r.const(3), x)):
        assert [str(p) for p in buchberger(Ideal(r, gens)).polys] == ["1"]
    assert radical_membership(z, Ideal(r, (x * y - one, x)))
    # the S-polynomial of x and x*y - 1 is the constant 1: that one
    # reduction is the last, with no minimalization or inter-reduction
    reductions = []
    reduce_terms = polyalg._reduce_terms

    def recorder(p, *args):
        reductions.append(dict(p))
        return reduce_terms(p, *args)

    monkeypatch.setattr(polyalg, "_reduce_terms", recorder)
    assert [str(p) for p in buchberger(Ideal(r, (x * y - one, x))).polys] == ["1"]
    assert reductions == [{(0, 0, 0): 1}]


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^", "exponent"),
        ("x^y", "exponent"),
        ("2/0*x", "zero denominator"),
        ("()", "unexpected ')'"),
        ("x*+y", "unexpected '+'"),
        ("x + z", "unknown variable 'z'"),
    ],
)
def test_parse_errors_are_value_errors(text, message):
    r = ring("x", "y")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_polynomial(r, text)


def test_unknown_ring_variable_is_named():
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        ring("x", "y").var("z")


def _x_squared_and_c():
    r = ring("x", "y")
    return Ideal(r, (r.var("x") * r.var("x"),)), ring("a", "b", "c").var("c")


def test_membership_rejects_a_polynomial_from_another_ring():
    ideal, c = _x_squared_and_c()
    with pytest.raises(ValueError, match="polynomials from different rings"):
        membership(c, ideal)


def test_radical_membership_rejects_a_polynomial_from_another_ring():
    ideal, c = _x_squared_and_c()
    with pytest.raises(ValueError, match="polynomials from different rings"):
        radical_membership(c, ideal)


def test_ideal_equal_rejects_ideals_from_different_rings():
    ideal, c = _x_squared_and_c()
    with pytest.raises(ValueError, match="ideals from different rings"):
        ideal_equal(ideal, Ideal(c.ring, (c,)))
    with pytest.raises(ValueError, match="ideals from different rings"):
        ideal_equal(Ideal(c.ring, ()), ideal)
