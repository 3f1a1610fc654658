"""Exact multivariate polynomials over the rationals: orders, arithmetic,
parsing, Groebner bases, and the ideal operations built on them."""

import time
from fractions import Fraction

import pytest
import sympy

from flagloci.poissonlab import build_chart, degeneracy_ideal
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


def sympy_gb(var_names, texts, order):
    syms = sympy.symbols(" ".join(var_names))
    if not isinstance(syms, tuple):
        syms = (syms,)
    polys = [sympy.sympify(t.replace("^", "**")) for t in texts]
    return sympy.groebner(polys, *syms, order=order)


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
        r = ring(*names, order=order)
        gb = buchberger(Ideal(r, tuple(parse_polynomial(r, t) for t in texts)))
        ref = sympy_gb(names, texts, order)
        mine = {to_sympy(p) for p in gb.polys}
        theirs = set()
        for g in ref.exprs:
            gp = sympy.Poly(g, *ref.gens)
            lc = gp.coeff_monomial(gp.LM(order=order))
            theirs.add(sympy.expand(g / lc))
        assert mine == theirs


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
