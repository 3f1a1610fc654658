"""Whole-group sweeps of the witnessed pairs: a frozen digest of every pair
and every maximal pair, the O(P^2) enclosure scan as the oracle of
``maximal_pairs``, and the abstract's global claims on the locus read off
the maximal Bruhat intervals."""

import hashlib
from functools import lru_cache

import pytest

from flagloci.bruhat import get_table
from flagloci.cascade import build_cascade
from flagloci.gcr import enumerate_gcr, pair_encloses
from flagloci.rootsys import build_root_system
from flagloci.weyl import longest_element, reduced_word, reflection_length

DIGEST_TYPES = ("A2xA1", "B2xA1", "G2xA1", "A3", "A2xA2", "B3", "C3", "A4", "D4", "B2xB2")
LOCUS_TYPES = ("A3", "B3", "C3", "G2xA1", "A2xA2", "A4", "D4", "F4")
BIG_TYPES = ("B4", "F4")

# computed on the O(P^2) maximality scan and the per-candidate witness search
DIGEST = "da86d0779ea3110348357532bbfd5972ef567f8e07c0286422f8b6fdf8d031a0"
# the same rows over BIG_TYPES, computed on the per-pair validation of GcrPair
BIG_DIGEST = "05268c3437bed92f8e9216a8d1c80f6e501eb6866d34d306c1fd53135b67c942"


@lru_cache(maxsize=None)
def sweep(t: str):
    """(root system, table, poset, maximal pairs) of one type, built once."""
    rs = build_root_system(t)
    table = get_table(rs)
    poset = enumerate_gcr(rs)
    return rs, table, poset, poset.maximal_pairs()


def _digest(types) -> str:
    """SHA-256 over every pair and every maximal pair of each type."""
    h = hashlib.sha256()
    for t in types:
        _, _, poset, maximal = sweep(t)
        h.update(f"{t}\n".encode())
        for p in poset.pairs:
            row = (
                reduced_word(p.v),
                reduced_word(p.w),
                p.host_word,
                p.removed_positions,
                p.removed_roots,
            )
            h.update(f"{row}\n".encode())
        h.update(b"maximal\n")
        for p in maximal:
            h.update(f"{(reduced_word(p.v), reduced_word(p.w))}\n".encode())
    return h.hexdigest()


def test_gcr_output_digest():
    assert _digest(DIGEST_TYPES) == DIGEST


def test_gcr_output_digest_b4_f4():
    assert _digest(BIG_TYPES) == BIG_DIGEST


# F4 is left out: its 13205 pairs make this scan about 1.7e8 comparisons
@pytest.mark.parametrize("t", DIGEST_TYPES)
def test_maximal_pairs_match_the_enclosure_scan(t):
    _, _, poset, maximal = sweep(t)
    scan = [
        p
        for p in poset.pairs
        if not any(q.d > p.d and pair_encloses(q, p) for q in poset.pairs)
    ]
    assert maximal == scan


@pytest.mark.parametrize("t", DIGEST_TYPES)
def test_pairs_hold_the_tables_own_elements(t):
    _, table, poset, _ = sweep(t)
    for p in poset.pairs:
        assert p.v is table.elements[table.index[p.v]]
        assert p.w is table.elements[table.index[p.w]]


def _components(masks: list[int]) -> int:
    """Connected components of the intervals, two joined when they meet."""
    parent = list(range(len(masks)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(masks)):
        for b in range(a):
            if masks[a] & masks[b]:
                parent[find(a)] = find(b)
    return len({find(a) for a in range(len(masks))})


@pytest.mark.parametrize("t", LOCUS_TYPES)
def test_locus_is_connected(t):
    # closed Richardsons meet iff their intervals share a T-fixed point
    _, table, _, maximal = sweep(t)
    masks = [table.up[table.index[p.v]] & table.down[table.index[p.w]] for p in maximal]
    assert _components(masks) == 1


@pytest.mark.parametrize("t", LOCUS_TYPES)
def test_top_gap_is_the_cascade_size(t):
    rs, _, _, maximal = sweep(t)
    top = max(p.d for p in maximal)
    assert top == len(build_cascade(rs).roots) == reflection_length(longest_element(rs))


def test_locus_is_not_equidimensional_on_d4():
    _, _, _, maximal = sweep("D4")
    assert {p.d for p in maximal} == {1, 2, 3, 4}


def test_maximal_gaps_on_f4():
    _, _, _, maximal = sweep("F4")
    assert {p.d for p in maximal} == {2, 3, 4}
