"""Witnessed orthogonal-removal pairs: the three characterizations, the
enumeration counts, and the boolean-interval structure."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from flagloci import gcr, weyl
from flagloci.bruhat import covering_pairs, get_table, interval
from flagloci.gcr import (
    GcrPair,
    enumerate_gcr,
    is_gcr_cond3,
    is_gcr_cond4,
    is_gcr_cond6,
    make_gcr_pair,
    pair_encloses,
    sub_pairs,
    verify_powerset_interval,
)
from flagloci.rootsys import build_root_system, orthogonal
from flagloci.weyl import (
    enumerate_group,
    from_word,
    identity,
    inverse,
    length,
    longest_element,
    multiply,
    perm_from_string,
    perm_string,
    reduced_word,
    reflection,
    reflection_length,
    simple_reflection,
)

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


def test_counts_a2():
    poset = enumerate_gcr(build_root_system("A2"))
    assert poset.counts_by_d() == {0: 6, 1: 8}
    assert len(poset.maximal_pairs()) == 8


def test_counts_a3():
    poset = enumerate_gcr(build_root_system("A3"))
    assert poset.counts_by_d() == {0: 24, 1: 58, 2: 11}
    maximal = poset.maximal_pairs()
    assert len(maximal) == 25
    by_d = {}
    for p in maximal:
        by_d[p.d] = by_d.get(p.d, 0) + 1
    assert by_d == {1: 14, 2: 11}


def test_s4_d2_pairs_frozen():
    poset = enumerate_gcr(build_root_system("A3"))
    got = {
        (perm_string(p.v), perm_string(p.w)) for p in poset.pairs if p.d == 2
    }
    assert got == S4_D2_PAIRS


def test_characterizations_agree():
    for t in ("A2", "B2"):
        rs = build_root_system(t)
        els = enumerate_group(rs)
        for v in els:
            for w in els:
                c3 = is_gcr_cond3(v, w)
                c4 = is_gcr_cond4(v, w)
                c6 = is_gcr_cond6(v, w) is not None
                assert c3 == c4 == c6


def test_enumeration_matches_characterizations():
    # every candidate the enumeration considers: v <= w with a gap of at
    # most the reflection length of w0
    for t in ("A3", "B3", "C3", "G2xA1", "A2xA2"):
        rs = build_root_system(t)
        found = {(p.v, p.w): p for p in enumerate_gcr(rs).pairs}
        table = get_table(rs)
        bound = reflection_length(longest_element(rs))
        candidates = 0
        for w in table.elements:
            for v in table.elements:
                if not table.leq(v, w) or length(w) - length(v) > bound:
                    continue
                candidates += 1
                c6 = is_gcr_cond6(v, w)
                assert (
                    ((v, w) in found)
                    == is_gcr_cond3(v, w)
                    == is_gcr_cond4(v, w)
                    == (c6 is not None)
                ), (t, v, w)
                if c6 is not None:
                    p = found[v, w]
                    assert (p.host_word, p.removed_positions) == c6
        assert candidates > len(found)


def test_incomparable_pair_rejected():
    rs = build_root_system("A3")
    v = perm_from_string(rs, "2134")
    w = perm_from_string(rs, "1324")
    assert is_gcr_cond3(v, w) is False
    assert is_gcr_cond4(v, w) is False
    assert is_gcr_cond6(v, w) is None


def test_powerset_interval_all_a3():
    poset = enumerate_gcr(build_root_system("A3"))
    for p in poset.pairs:
        assert verify_powerset_interval(p)


def test_interval_order_is_containment():
    # the order that verify_powerset_interval reads off the Hasse diagram:
    # on every maximal B3 interval, w_K <= w_L iff L is inside K
    rs = build_root_system("B3")
    table = get_table(rs)
    for p in enumerate_gcr(rs).maximal_pairs():
        w_by_set = gcr._subset_products(p, p.w)
        for K, xk in w_by_set.items():
            for L, xl in w_by_set.items():
                assert table.leq(xk, xl) == set(L).issubset(K)


@pytest.mark.parametrize("change", ["drop an edge", "add an element"])
def test_powerset_check_rejects_a_wrong_interval(monkeypatch, change):
    rs = build_root_system("A3")
    pair = make_gcr_pair(perm_from_string(rs, "1234"), perm_from_string(rs, "2143"))
    assert verify_powerset_interval(pair)
    real = gcr.interval

    def wrong(v, w):
        elements, edges = real(v, w)
        if change == "drop an edge":
            return elements, edges[1:]
        return elements + [longest_element(rs)], edges

    monkeypatch.setattr(gcr, "interval", wrong)
    assert verify_powerset_interval(pair) is False


def test_w_k_elements_frozen():
    rs = build_root_system("A3")
    pair = make_gcr_pair(perm_from_string(rs, "1234"), perm_from_string(rs, "2143"))
    assert pair.d == 2
    refls = [reflection(rs, g) for g in pair.removed_roots]
    got = {
        perm_string(pair.w),
        perm_string(multiply(refls[0], pair.w)),
        perm_string(multiply(refls[1], pair.w)),
        perm_string(multiply(refls[0], multiply(refls[1], pair.w))),
    }
    assert got == {"2143", "1243", "2134", "1234"}


def test_sub_pairs_count_and_validity():
    rs = build_root_system("A3")
    pair = make_gcr_pair(perm_from_string(rs, "1324"), perm_from_string(rs, "2413"))
    subs = sub_pairs(pair)
    assert len(subs) == 3**pair.d
    seen = set()
    for J, K, vj, wk in subs:
        assert set(J).isdisjoint(K)
        seen.add((J, K))
        sub = make_gcr_pair(vj, wk)
        assert sub.d == pair.d - len(J) - len(K)
    assert len(seen) == 3**pair.d


def test_pair_encloses():
    rs = build_root_system("A3")
    outer = make_gcr_pair(perm_from_string(rs, "1234"), perm_from_string(rs, "2143"))
    inner = make_gcr_pair(perm_from_string(rs, "1234"), perm_from_string(rs, "2134"))
    assert pair_encloses(outer, inner)
    assert not pair_encloses(inner, outer)


def test_witness_invariants():
    rs = build_root_system("B2")
    for p in enumerate_gcr(rs).pairs:
        assert p.d == length(p.w) - length(p.v)
        for i in range(p.d):
            for j in range(i + 1, p.d):
                assert orthogonal(rs, p.removed_roots[i], p.removed_roots[j])


def test_reducible_type():
    poset = enumerate_gcr(build_root_system("A1xA1"))
    assert poset.counts_by_d() == {0: 4, 1: 4, 2: 1}


def _b3_pair() -> GcrPair:
    # removing positions 1, 5, 6 of 1.2.3.2.1.3 leaves 2.3.2; the removed
    # roots a1, a1 + 2a2 + 2a3 and a3 are pairwise orthogonal
    rs = build_root_system("B3")
    return make_gcr_pair(from_word(rs, (2, 3, 2)), from_word(rs, (1, 2, 3, 2, 1, 3)))


def test_b3_pair_is_the_expected_witness():
    p = _b3_pair()
    assert (p.d, p.host_word, p.removed_positions, p.removed_roots) == (
        3,
        (1, 2, 3, 2, 1, 3),
        (1, 5, 6),
        ((1, 0, 0), (1, 2, 2), (0, 0, 1)),
    )
    assert _rebuild(p) == p  # a direct rebuild passes every check
    # the witness is stored once: d and the removed roots are derived
    assert GcrPair.__slots__ == ("v", "w", "host_word", "removed_positions")
    assert not hasattr(p, "__dict__")


def test_pair_is_read_only():
    # the constructor is the one place a pair's fields are set, so every
    # pair handed out has passed its checks
    p = _b3_pair()
    for name in ("v", "w", "host_word", "removed_positions"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))


def test_pair_copies_and_pickles():
    p = _b3_pair()
    assert copy.copy(p) == p
    assert pickle.loads(pickle.dumps(p)) == p


def test_pooled_pairs_copy_and_pickle():
    # enumerate_gcr builds its pairs on a pooled group, whose root system
    # caches dicts keyed on its elements
    pairs = enumerate_gcr(build_root_system("D4")).pairs
    assert pickle.loads(pickle.dumps(pairs)) == pairs
    assert copy.deepcopy(pairs[-1]) == pairs[-1]
    assert copy.copy(pairs[-1]) == pairs[-1]


def test_pair_given_lists_equals_the_pair_given_tuples():
    # the fields are stored as tuples, so the pair hashes and compares like
    # the one built from tuples
    rs = build_root_system("A2")
    v, w = identity(rs), simple_reflection(rs, 1)
    from_lists, from_tuples = GcrPair(v, w, [1], [1]), GcrPair(v, w, (1,), (1,))
    assert from_lists.host_word == (1,) and from_lists.removed_positions == (1,)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)


def _rebuild(p: GcrPair, **changed) -> GcrPair:
    """A pair built by the constructor from p's fields, with ``changed``
    replacing some of them."""
    fields = dict(v=p.v, w=p.w, host_word=p.host_word, removed_positions=p.removed_positions)
    fields.update(changed)
    return GcrPair(**fields)


def _corruptions(p: GcrPair) -> dict[str, tuple[dict, str]]:
    """One field changed at a time: the changed fields, and the message of
    the one check of GcrPair that the corruption breaks."""
    rs = p.w.rs
    # non-orthogonal removal: positions 1 and 2 of the host carry a1 and
    # a1 + a2, and the kept letters 3.2.1.3 are a reduced word of their v
    v12 = from_word(rs, (3, 2, 1, 3))
    return {
        # 2.1.3.2.1.3 is reduced, but it is a word of another element
        "host word does not multiply to w": (
            dict(host_word=(2, 1, 3, 2, 1, 3)),
            "host word does not multiply to w",
        ),
        "host word is not reduced": (
            dict(
                host_word=(1, 1) + p.host_word,
                removed_positions=tuple(k + 2 for k in p.removed_positions),
            ),
            r"word \(1, 1, 1, 2, 3, 2, 1, 3\) is not reduced",
        ),
        # the same removal set in another order: a second form of one witness
        "removed positions are not sorted": (
            dict(removed_positions=(5, 1, 6)),
            r"removed positions \(5, 1, 6\) do not strictly ascend inside 1..6",
        ),
        "a removed position is repeated": (
            dict(removed_positions=(1, 5, 5, 6)),
            r"removed positions \(1, 5, 5, 6\) do not strictly ascend",
        ),
        # the kept letters are still 2.3.2, a reduced word of v
        "a removed position is outside the host word": (
            dict(removed_positions=(1, 5, 6, 7)),
            r"removed positions \(1, 5, 6, 7\) do not strictly ascend inside 1..6",
        ),
        "kept letters are not a reduced word of v": (
            dict(removed_positions=(2, 5, 6)),
            "kept letters are not a reduced word of v",
        ),
        "removed roots are not orthogonal": (
            dict(v=v12, removed_positions=(1, 2)),
            r"removed roots \(1, 0, 0\) and \(1, 1, 0\) are not orthogonal",
        ),
    }


@pytest.mark.parametrize("case", sorted(_corruptions(_b3_pair())))
def test_pair_validation_refuses_each_corruption(case):
    p = _b3_pair()
    with pytest.raises(ValueError):
        _rebuild(p, **_corruptions(p)[case][0])


@pytest.mark.parametrize("case", sorted(_corruptions(_b3_pair())))
def test_each_corruption_trips_its_own_check(case):
    # the per-host checks run first, then the per-pair ones in order, so
    # each corruption names the check it breaks.  "The removed reflections
    # carry w to v" is no check of its own: orthogonal reflections commute,
    # so it follows from the kept-letter and orthogonality checks.
    p = _b3_pair()
    changed, message = _corruptions(p)[case]
    with pytest.raises(ValueError, match=message):
        _rebuild(p, **changed)


@pytest.mark.parametrize("t", ("A3", "B3", "G2xA1"))
def test_enumerated_pairs_equal_the_direct_witness(t):
    names = GcrPair.__slots__
    for p in enumerate_gcr(build_root_system(t)).pairs:
        q = make_gcr_pair(p.v, p.w)
        assert [getattr(p, n) for n in names] == [getattr(q, n) for n in names]


def test_pair_validation_survives_optimize():
    # under python -O every bare assert is gone; GcrPair must still refuse
    # a removal that does not match its elements
    code = (
        "import sys\n"
        "from flagloci.gcr import GcrPair\n"
        "from flagloci.rootsys import build_root_system\n"
        "from flagloci.weyl import from_word, identity\n"
        "rs = build_root_system('A2')\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    GcrPair(identity(rs), from_word(rs, (1, 2)), (1, 2), (1,))\n"
        "except ValueError:\n"
        "    print('ValueError', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError", "1"]


def test_enumeration_builds_one_host_per_w(monkeypatch):
    # one removal walk per element w, over its host word reduced_word(w),
    # yields every v below it
    walked = []
    real = gcr._removal_walk

    def recording(host):
        found = real(host)
        walked.append((host.w, {host.word}))
        return found

    monkeypatch.setattr(gcr, "_removal_walk", recording)
    rs = build_root_system("B3")
    pairs = gcr.enumerate_gcr(rs).pairs
    assert [w for w, _ in walked] == get_table(rs).elements
    assert all(hosts == {reduced_word(w)} for w, hosts in walked)
    assert {reduced_word(w) for w, _ in walked} == {p.host_word for p in pairs}


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1"])
def test_pairs_and_intervals_come_in_sort_key_order(t):
    # the enumeration and interval sort by table index, which is sort_key
    # order
    rs = build_root_system(t)
    pairs = enumerate_gcr(rs).pairs
    keys = [(p.w.sort_key(), p.v.sort_key()) for p in pairs]
    assert keys == sorted(set(keys))
    pair_key = lambda e: (e[0].sort_key(), e[1].sort_key())
    for p in pairs:
        elements, edges = interval(p.v, p.w)
        assert elements == sorted(elements, key=lambda x: x.sort_key())
        assert edges == sorted(edges, key=pair_key)
    covers = covering_pairs(rs)
    assert covers == sorted(covers, key=pair_key)


def test_walks_on_a_pooled_group_step_by_lookup(monkeypatch):
    # once the group is enumerated, the removal walk and the subword walk
    # step over the pooled neighbours: the enumeration builds no element,
    # and the witness searches look up the inverse of each target once, as
    # a pooled element keeps its inverse (and is its inverse's inverse)
    rs = build_root_system("B3")
    get_table(rs)
    made = []
    real = weyl._make

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(weyl, "_make", counting)
    maximal = enumerate_gcr(rs).maximal_pairs()
    assert made == []
    assert len(maximal) == 48
    assert all(is_gcr_cond6(p.v, p.w) for p in maximal)
    targets = {frozenset((p.v, inverse(p.v))) for p in maximal}
    assert len(made) == len(targets) == 26
