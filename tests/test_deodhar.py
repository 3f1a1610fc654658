"""R-polynomials via distinguished subwords against the descent recurrence,
plus the subword statistics themselves."""

import random

import pytest

from flagloci.deodhar import (
    LaurentFreePolynomial,
    distinguished_subwords,
    positive_subword,
    q_minus_one_power,
    r_polynomial_deodhar,
    r_polynomial_recurrence,
)
from flagloci.bruhat import bruhat_leq
from flagloci.gcr import enumerate_gcr
from flagloci.rootsys import build_root_system
from flagloci.weyl import (
    all_reduced_words,
    enumerate_group,
    identity,
    inverse,
    length,
    longest_element,
    reduced_word,
    reflection_length,
)


def test_r_longest_a2_frozen():
    rs = build_root_system("A2")
    r = r_polynomial_deodhar(identity(rs), longest_element(rs))
    assert r.coeffs == (-1, 2, -2, 1)


def test_r_longest_b2_frozen():
    rs = build_root_system("B2")
    r = r_polynomial_deodhar(identity(rs), longest_element(rs))
    assert r.coeffs == (1, -2, 2, -2, 1)


def test_two_routes_agree_small_groups():
    for t in ("A2", "B2", "G2"):
        rs = build_root_system(t)
        els = enumerate_group(rs)
        for v in els:
            for w in els:
                a = r_polynomial_deodhar(v, w)
                b = r_polynomial_recurrence(v, w)
                assert a.coeffs == b.coeffs


def test_both_routes_refuse_elements_of_two_types():
    # B2 and C2 elements with equal permutations are not equal, so the
    # recurrence does not stop at v == w; the subword walk refuses them
    # before it walks, also on the empty word of the identity
    b2, c2 = build_root_system("B2"), build_root_system("C2")
    for make in (identity, longest_element):
        for route in (r_polynomial_recurrence, r_polynomial_deodhar):
            with pytest.raises(ValueError, match="elements of different groups"):
                route(make(b2), make(c2))


def test_zero_iff_not_below():
    rs = build_root_system("B2")
    els = enumerate_group(rs)
    for v in els:
        for w in els:
            assert r_polynomial_deodhar(v, w).is_zero() == (not bruhat_leq(v, w))


def test_r_diagonal_is_one():
    rs = build_root_system("G2")
    for w in enumerate_group(rs):
        assert r_polynomial_deodhar(w, w).coeffs == (1,)


def test_degree_is_length_gap():
    rs = build_root_system("B2")
    els = enumerate_group(rs)
    for v in els:
        for w in els:
            r = r_polynomial_deodhar(v, w)
            if not r.is_zero():
                assert r.degree() == length(w) - length(v)


def test_gcr_pairs_give_q_minus_one_power():
    for t in ("A2", "A3", "B2"):
        rs = build_root_system(t)
        for p in enumerate_gcr(rs).pairs:
            r = r_polynomial_deodhar(p.v, p.w)
            assert r.coeffs == q_minus_one_power(p.d).coeffs
            assert r.factored() == f"(q-1)^{p.d}"


def test_factored_only_for_that_shape():
    rs = build_root_system("A2")
    r = r_polynomial_deodhar(identity(rs), longest_element(rs))
    assert r.factored() is None


def test_host_word_independence():
    rs = build_root_system("A3")
    els = enumerate_group(rs)
    rng = random.Random(3)
    for w in rng.sample(els, 6):
        words = all_reduced_words(w)
        if len(words) < 2:
            continue
        for v in rng.sample(els, 6):
            if not bruhat_leq(v, w):
                continue
            vals = set()
            for word in words[:3]:
                total = LaurentFreePolynomial.of([])
                for ds in distinguished_subwords(rs, word, v):
                    term = q_minus_one_power(ds.n_stat) * LaurentFreePolynomial.of(
                        [0] * ds.m_stat + [1]
                    )
                    total = total + term
                vals.add(total.coeffs)
            assert len(vals) == 1


def test_statistics_invariants():
    rs = build_root_system("B2")
    els = enumerate_group(rs)
    w0 = longest_element(rs)
    word = reduced_word(w0)
    for v in els:
        for ds in distinguished_subwords(rs, word, v):
            assert ds.n_stat + 2 * ds.m_stat == length(w0) - length(v)
            assert ds.n_stat >= reflection_length(inverse(v) * w0)


def test_positive_subword_unique_m_zero():
    rs = build_root_system("A3")
    els = enumerate_group(rs)
    w0 = longest_element(rs)
    word = reduced_word(w0)
    for v in els:
        pos = positive_subword(rs, word, v)
        assert pos.m_stat == 0
        zero_m = [d for d in distinguished_subwords(rs, word, v) if d.m_stat == 0]
        assert len(zero_m) == 1
        assert zero_m[0].removed == pos.removed


def test_rejects_non_reduced_host():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        distinguished_subwords(rs, (1, 1), identity(rs))


def test_pretty_and_of():
    p = LaurentFreePolynomial.of([-1, 2, -2, 1])
    assert str(p) == "q^3 - 2*q^2 + 2*q - 1"
    assert LaurentFreePolynomial.of([0, 0]).is_zero()
    assert q_minus_one_power(0).coeffs == (1,)
    assert q_minus_one_power(2).coeffs == (1, -2, 1)
