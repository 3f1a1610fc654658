"""Minimal coset representatives, the coset-changing refinement of the
Bruhat order, and the parabolic pair checks."""

import itertools

import pytest

from flagloci import gcr
from flagloci.bruhat import closure, covering_pairs, get_table
from flagloci.parabolic import (
    canonicalize_pair,
    gcr_p,
    is_min_rep,
    levi_contains,
    min_coset_rep,
    p_bruhat_leq,
    verify_classes_distinct,
    verify_p_interval,
)
from flagloci.parabolic import _p_masks
from flagloci.rootsys import build_root_system
from flagloci.weyl import (
    enumerate_group,
    from_word,
    inverse,
    length,
    multiply,
    reduced_word,
)


def all_subsets(rank):
    idx = range(1, rank + 1)
    for k in range(rank + 1):
        yield from itertools.combinations(idx, k)


def brute_p_leq(rs, J, els):
    """Reflexive-transitive closure of coset-changing Bruhat covers."""
    n = len(els)
    pos = {x.matrix: i for i, x in enumerate(els)}
    coset = [min_coset_rep(x, J)[0].matrix for x in els]
    reach = [set([i]) for i in range(n)]
    for v, w in covering_pairs(rs):
        i, j = pos[v.matrix], pos[w.matrix]
        if coset[i] != coset[j]:
            reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grow = set()
            for j in reach[i]:
                grow |= reach[j]
            if not grow <= reach[i]:
                reach[i] |= grow
                changed = True
    return reach, pos


def test_min_coset_rep_example():
    rs = build_root_system("A2")
    w = from_word(rs, [1, 2])
    top, bot = min_coset_rep(w, [1])
    assert reduced_word(top) == (1, 2)
    assert reduced_word(bot) == ()


def test_min_coset_rep_properties():
    rs = build_root_system("B2")
    els = enumerate_group(rs)
    for J in all_subsets(rs.rank):
        sub = [x for x in els if all(s in J for s in reduced_word(x))]
        for w in els:
            top, bot = min_coset_rep(w, J)
            assert multiply(top, bot).matrix == w.matrix
            assert length(top) + length(bot) == length(w)
            assert is_min_rep(top, J)
            assert all(s in J for s in reduced_word(bot))
            # top really is the shortest element of its coset
            coset_lengths = [length(multiply(w, inverse(z))) for z in sub]
            assert length(top) == min(coset_lengths)


def test_p_leq_matches_closure_oracle():
    for t in ("A2", "A3"):
        rs = build_root_system(t)
        els = enumerate_group(rs)
        for J in all_subsets(rs.rank):
            reach, pos = brute_p_leq(rs, J, els)
            for v in els:
                for w in els:
                    expected = pos[w.matrix] in reach[pos[v.matrix]]
                    assert p_bruhat_leq(v, w, J) == expected


@pytest.mark.parametrize("t", ["A3", "B3"])
def test_p_masks_match_min_coset_rep(t):
    # the one-pass placement of the coset representatives gives the masks
    # that min_coset_rep's descent stripping gives
    rs = build_root_system(t)
    table = get_table(rs)
    for J in all_subsets(rs.rank):
        coset = [min_coset_rep(x, J)[0] for x in table.elements]
        covers = [[j for j in js if coset[j] != coset[k]] for k, js in enumerate(table.covers_down)]
        assert _p_masks(table, J) == closure(covers)


def test_p_leq_empty_j_is_bruhat():
    from flagloci.bruhat import bruhat_leq

    rs = build_root_system("B2")
    els = enumerate_group(rs)
    for v in els:
        for w in els:
            assert p_bruhat_leq(v, w, ()) == bruhat_leq(v, w)


def test_canonicalize_idempotent_and_collapse():
    rs = build_root_system("A3")
    els = enumerate_group(rs)
    J = (2,)
    sub = [x for x in els if all(s in J for s in reduced_word(x))]
    import random

    rng = random.Random(5)
    done = 0
    for v in rng.sample(els, len(els)):
        for w in rng.sample(els, len(els)):
            if not p_bruhat_leq(v, w, J):
                continue
            cls = canonicalize_pair(v, w, J)
            again = canonicalize_pair(cls.v, cls.w, J)
            assert again == cls
            for z in sub:
                vz, wz = multiply(v, z), multiply(w, z)
                if length(wz) == length(w) + length(z) and p_bruhat_leq(vz, wz, J):
                    assert canonicalize_pair(vz, wz, J) == cls
            done += 1
            if done >= 40:
                return


def test_canonicalize_rejects_unrelated():
    rs = build_root_system("A2")
    els = enumerate_group(rs)
    w0 = [x for x in els if length(x) == 3][0]
    with pytest.raises(ValueError):
        canonicalize_pair(w0, from_word(rs, [1]), (1,))


def test_levi_contains():
    rs = build_root_system("A3")
    assert levi_contains(rs, (1, 0, 0), (1,))
    assert levi_contains(rs, (0, -1, 0), (1, 2))
    assert not levi_contains(rs, (1, 1, 0), (1,))
    assert not levi_contains(rs, (0, 0, 1), (1, 2))


def test_gcr_p_all_j_a3():
    rs = build_root_system("A3")
    total = len(gcr_p(rs, ()))
    assert total == 93
    for J in all_subsets(rs.rank):
        pairs = gcr_p(rs, J)
        for p in pairs:
            assert is_min_rep(p.w, J)
            assert verify_p_interval(p, J)
            assert verify_classes_distinct(p, J)


def test_gcr_p_counts_a3():
    rs = build_root_system("A3")
    counts = {J: len(gcr_p(rs, J)) for J in all_subsets(rs.rank)}
    assert counts[()] == 93
    assert counts[(1, 2, 3)] == 1
    for J in all_subsets(rs.rank):
        for K in all_subsets(rs.rank):
            if set(J) <= set(K):
                assert counts[K] <= counts[J]


def test_gcr_p_reuses_the_enumeration(monkeypatch):
    calls = []
    real = gcr._removal_walk

    def recording(host):
        calls.append(host.w)
        return real(host)

    monkeypatch.setattr(gcr, "_removal_walk", recording)
    rs = build_root_system("B3")
    poset = gcr.enumerate_gcr(rs)
    assert len(calls) == len(get_table(rs).elements)  # one walk per w
    fresh = gcr.enumerate_gcr(build_root_system("B3")).pairs
    calls.clear()
    for J in all_subsets(rs.rank):
        assert gcr_p(rs, J) == [p for p in fresh if is_min_rep(p.w, J)]
    assert calls == []
    # the returned list is the caller's own: the cached pairs stay
    poset.pairs.clear()
    assert gcr.enumerate_gcr(rs).pairs == fresh
    assert calls == []
