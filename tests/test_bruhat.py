"""Bruhat order: recursion vs table vs brute subword oracle, plus the
subword search itself."""

import itertools
import random

import pytest

from flagloci import bruhat
from flagloci.bruhat import (
    bruhat_leq,
    covering_pairs,
    covers,
    export_bruhat_graph,
    get_table,
    interval,
    leq,
    subwords_with_value,
    walk_subwords,
)
from flagloci.construct import build_top_pair
from flagloci.deodhar import r_polynomial_deodhar, r_polynomial_recurrence
from flagloci.gcr import (
    is_gcr_cond3,
    is_gcr_cond4,
    is_gcr_cond6,
    make_gcr_pair,
    pair_encloses,
)
from flagloci.parabolic import p_bruhat_leq
from flagloci.rootsys import build_root_system
from flagloci.weyl import (
    enumerate_group,
    from_word,
    identity,
    length,
    longest_element,
    reduced_word,
    reflection,
    right_descents,
    simple_reflection,
)


def brute_leq(v, w):
    # subword property checked over every subset of one reduced word of w
    rs = v.rs
    word = reduced_word(w)
    target = v.matrix
    for k in range(len(word) + 1):
        for keep in itertools.combinations(range(len(word)), k):
            if from_word(rs, [word[i] for i in keep]).matrix == target:
                return True
    return False


def test_three_routes_agree():
    for t in ("A2", "B2"):
        rs = build_root_system(t)
        els = enumerate_group(rs)
        table = get_table(rs)
        for v in els:
            for w in els:
                expected = brute_leq(v, w)
                assert bruhat_leq(v, w) == expected
                assert table.leq(v, w) == expected


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1", "D4"])
def test_recursion_matches_table_on_all_pairs(t):
    rs = build_root_system(t)
    els = enumerate_group(rs)
    table = get_table(rs)
    for v in els:
        for w in els:
            assert bruhat_leq(v, w) == table.leq(v, w)


def test_recursion_matches_subword_property_e6():
    # no table: v <= w iff some subword of a reduced word of w has value v;
    # half the v are built as subwords of w, so both answers occur
    rs = build_root_system("E6")
    rng = random.Random(6)
    seen = set()
    for k in range(200):
        w = from_word(rs, [rng.randint(1, 6) for _ in range(rng.randint(0, 40))])
        word = reduced_word(w)
        if k % 2:
            v = from_word(rs, [i for i in word if rng.random() < 0.6])
        else:
            v = from_word(rs, [rng.randint(1, 6) for _ in range(rng.randint(0, 20))])
        expected = bool(subwords_with_value(rs, word, v))
        assert bruhat_leq(v, w) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_reflexive_antisymmetric():
    rs = build_root_system("A3")
    els = enumerate_group(rs)
    for v in els:
        assert bruhat_leq(v, v)
    for v in els:
        for w in els:
            if v.matrix != w.matrix and bruhat_leq(v, w):
                assert not bruhat_leq(w, v)


def test_length_monotone():
    rs = build_root_system("B2")
    for v in enumerate_group(rs):
        for w in enumerate_group(rs):
            if bruhat_leq(v, w):
                assert length(v) <= length(w) and (v.matrix == w.matrix or length(v) < length(w))


def test_covers_a2():
    rs = build_root_system("A2")
    pairs = covering_pairs(rs)
    assert len(pairs) == 8
    for v, w in pairs:
        assert length(w) == length(v) + 1
        assert bruhat_leq(v, w)


def test_covers_predicate():
    rs = build_root_system("B2")
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    assert covers(e, s1)
    assert not covers(s1, e)
    assert not covers(e, longest_element(rs))


def test_interval_full_group():
    rs = build_root_system("A2")
    elements, edges = interval(identity(rs), longest_element(rs))
    assert len(elements) == 6
    assert len(edges) == 8


def every(k, sigma, removed):
    return True, True


def reduced_only(word, target):
    """The policy whose hits are the reduced words of the target inside
    ``word``: remove while fewer than l(word) - l(target) letters are out,
    keep a letter only if it ascends and still fits the target's length."""
    lt = length(target)
    d = len(word) - lt

    def step(k, sigma, removed):
        may_keep = word[k] not in right_descents(sigma) and k - len(removed) < lt
        return len(removed) < d, may_keep

    return step


def removal_sets(rs, word, target, step):
    return [removed for removed, _ in walk_subwords(rs, word, target, step)]


def test_subwords_with_value_examples():
    rs = build_root_system("A2")
    s1 = from_word(rs, [1])
    e = identity(rs)
    assert subwords_with_value(rs, (1, 2, 1), s1) == [(1, 2), (2, 3)]
    assert subwords_with_value(rs, (1, 2, 1), e) == [(1, 2, 3), (2,)]


def test_walk_reduced_only_policy():
    rs = build_root_system("A2")
    e = identity(rs)
    assert removal_sets(rs, (1, 2, 1), e, reduced_only((1, 2, 1), e)) == [(1, 2, 3)]


def test_subwords_first_only():
    rs = build_root_system("A2")
    s1 = from_word(rs, [1])
    assert next(walk_subwords(rs, (1, 2, 1), s1, every))[0] == (1, 2)


def test_subwords_whole_word():
    rs = build_root_system("A2")
    w0 = longest_element(rs)
    assert subwords_with_value(rs, (1, 2, 1), w0) == [()]
    assert subwords_with_value(rs, (1, 2, 1), from_word(rs, [2])) == [(1, 3)]


def test_subwords_removal_filter():
    # veto any removal at the first letter (0-based position 0)
    rs = build_root_system("A2")
    e = identity(rs)
    assert removal_sets(rs, (1, 2, 1), e, lambda k, sigma, removed: (k != 0, True)) == [(2,)]


def test_subword_positions_partition():
    rs = build_root_system("B2")
    word = reduced_word(longest_element(rs))
    for v in enumerate_group(rs):
        hits = list(walk_subwords(rs, word, v, every))
        assert [removed for removed, _ in hits] == subwords_with_value(rs, word, v)
        assert len(hits) >= 1
        for removed, trace in hits:
            kept = [word[i] for i in range(len(word)) if i + 1 not in removed]
            assert from_word(rs, kept) == v
            assert len(trace) == len(word) + 1 and trace[-1] == v


@pytest.mark.parametrize("t", ["A3", "B3"])
def test_walk_misses_no_subword(t):
    # every subset of a reduced word of w0, sorted by target: the walk's
    # hits are exactly these, in lexicographic order, with and without the
    # reduced-only policy
    rs = build_root_system(t)
    word = reduced_word(longest_element(rs))
    n = len(word)
    expected = {v: [] for v in enumerate_group(rs)}
    for size in range(n + 1):
        for removed in itertools.combinations(range(1, n + 1), size):
            kept = [word[i - 1] for i in range(1, n + 1) if i not in removed]
            expected[from_word(rs, kept)].append(removed)
    for v, sets in expected.items():
        assert subwords_with_value(rs, word, v) == sorted(sets)
        reduced = [r for r in sets if len(r) == n - length(v)]
        assert removal_sets(rs, word, v, reduced_only(word, v)) == sorted(reduced)


def test_walk_takes_one_inverse(monkeypatch):
    # the walk moves target^{-1} sigma by right products: one inverse per
    # walk, however many nodes it visits
    rs = build_root_system("B3")
    word = reduced_word(longest_element(rs))
    targets = enumerate_group(rs)
    get_table(rs)
    counts = {"inverse": 0, "leq": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bruhat, "inverse", counting("inverse", bruhat.inverse))
    monkeypatch.setattr(bruhat, "leq", counting("leq", bruhat.leq))
    for v in targets:
        subwords_with_value(rs, word, v)
    assert counts["inverse"] == len(targets)
    assert counts["leq"] > 10 * len(targets)


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1", "D4"])
def test_lifting_property_on_table(t):
    # the fact behind the walk's skipped tests: for a right descent s of u
    # and y <= u, y <= us when s is an ascent of y, and ys <= us otherwise
    rs = build_root_system(t)
    table = get_table(rs)
    for u in table.elements:
        for i in right_descents(u):
            s = simple_reflection(rs, i)
            us = u * s
            for y in table.elements:
                if not table.leq(y, u):
                    continue
                ys = y * s
                if table.leq(y, ys):
                    assert table.leq(y, us)
                else:
                    assert table.leq(ys, us)


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1", "F4"])
def test_table_covers_match_the_direct_products(t):
    # the table forms t w on indices through s_i t_{s_i b} s_i; the direct
    # route multiplies by every reflection
    rs = build_root_system(t)
    table = get_table(rs)
    refls = [reflection(rs, b) for b in rs.positive_roots]
    want = [
        sorted(table.index[r * w] for r in refls if length(r * w) == length(w) - 1)
        for w in table.elements
    ]
    assert table.covers_down == want


# leq calls of the top-pair witness search with a test at every node
FULL_TEST_CALLS = {"E6": 26, "E7": 35, "D7": 24, "A7": 24}


@pytest.mark.parametrize("t", sorted(FULL_TEST_CALLS))
def test_walk_tests_one_branch(monkeypatch, t):
    # the lifting property answers one child's test at every node, so the
    # witness search on a top pair makes fewer than half the leq calls
    rs = build_root_system(t)
    top = build_top_pair(rs)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return leq(*args, **kwargs)

    monkeypatch.setattr(bruhat, "leq", counting)
    assert is_gcr_cond6(top.v, top.w) is not None
    assert 2 * len(calls) < FULL_TEST_CALLS[t]


def test_top_pair_builds_no_pool():
    # the top-pair path enumerates no group, small (B3, D4) or large (E6,
    # |W| = 51840), so it keeps no element pool, no table and no pairs
    for t in ("B3", "D4", "E6"):
        rs = build_root_system(t)
        top = build_top_pair(rs)
        assert is_gcr_cond6(top.v, top.w) is not None
        assert "elements" not in rs.cache, t
        assert "bruhat_table" not in rs.cache, t
        assert "gcr_pairs" not in rs.cache, t


def test_reduced_word_rejects_non_reduced():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match="not reduced"):
        walk_subwords(rs, (1, 2, 2), identity(rs), every)
    with pytest.raises(ValueError, match="not reduced"):
        walk_subwords(rs, (1, 1), identity(rs), every)


def test_dot_export():
    rs = build_root_system("A2")
    dot = export_bruhat_graph(rs)
    assert dot.startswith("digraph")
    assert '"123"' in dot and '"321"' in dot
    s1 = simple_reflection(rs, 1)
    flagged = export_bruhat_graph(rs, highlight={(identity(rs), s1)})
    assert flagged.count("[color=") == 1


def test_dot_export_reduced_word_names():
    # outside type A a vertex is "s" and a reduced word, the identity "e"
    dot = export_bruhat_graph(build_root_system("B2"))
    vertices = [line for line in dot.splitlines() if line.endswith('";') and '->' not in line]
    assert vertices == [
        '  "e";',
        '  "s1";',
        '  "s2";',
        '  "s2.1";',
        '  "s1.2";',
        '  "s1.2.1";',
        '  "s2.1.2";',
        '  "s1.2.1.2";',
    ]
    assert '  "s2.1" -> "s1.2.1";' in dot.splitlines()


def test_table_reuse_only_mode():
    rs = build_root_system("E8")
    assert get_table(rs, build_limit=0) is None


def test_leq_reads_a_table_and_builds_none():
    rs = build_root_system("B3")
    els = enumerate_group(rs)
    pairs = [(els[i], els[j]) for i in range(0, len(els), 7) for j in range(0, len(els), 5)]
    want = [bruhat_leq(v, w) for v, w in pairs]
    assert [leq(v, w) for v, w in pairs] == want
    assert "bruhat_table" not in rs.cache
    table = get_table(rs)
    assert [leq(v, w) for v, w in pairs] == want
    assert rs.cache["bruhat_table"] is table


def test_comparisons_refuse_elements_of_two_groups():
    # the same refusal with or without a table, for a second A2 as for B2
    rs = build_root_system("A2")
    v, w = identity(rs), longest_element(rs)
    others = [longest_element(build_root_system(t)) for t in ("A2", "B2")]
    for x in others:
        for a, b in ((v, x), (x, w)):
            with pytest.raises(ValueError, match="different groups"):
                leq(a, b)
    get_table(rs)
    for x in others:
        for a, b in ((v, x), (x, w)):
            for compare in (leq, interval, lambda a, b: p_bruhat_leq(a, b, [1])):
                with pytest.raises(ValueError, match="different groups"):
                    compare(a, b)


def test_single_calls_build_no_table():
    # comparisons, walks and R-polynomials on single pairs never build a
    # table, whatever the size of the group
    rs = build_root_system("B3")
    els = enumerate_group(rs)
    found = []
    for v in els[::5]:
        for w in els[::3]:
            is_gcr_cond3(v, w)
            is_gcr_cond4(v, w)
            r_polynomial_recurrence(v, w)
            r_polynomial_deodhar(v, w)
            covers(v, w)
            if is_gcr_cond6(v, w) is not None:
                found.append(make_gcr_pair(v, w))
    assert len(found) > 10
    assert any(pair_encloses(a, b) for a in found for b in found if a != b)
    assert "bruhat_table" not in rs.cache


def test_get_table_passes_build_limit_as_cap(monkeypatch):
    caps = []
    real = bruhat.enumerate_group

    def recording(rs, cap=60000):
        caps.append(cap)
        return real(rs, cap)

    monkeypatch.setattr(bruhat, "enumerate_group", recording)
    assert get_table(build_root_system("A3"), build_limit=70000) is not None
    assert caps == [70000]
