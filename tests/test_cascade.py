"""Strongly orthogonal cascade of highest roots and its structural
identities."""

import gc

import pytest

from flagloci import cascade
from flagloci.cascade import (
    build_cascade,
    descendants,
    iter_nodes,
    support_subsystem,
    verify_kostant,
)
from flagloci.construct import build_top_pair
from flagloci.rootsys import (
    RootSystem,
    build_root_system,
    highest_roots,
    pairing,
    strongly_orthogonal,
)


def test_cascade_roots_a3():
    c = build_cascade(build_root_system("A3"))
    assert c.roots == ((1, 1, 1), (0, 1, 0))


def test_cascade_roots_g2():
    c = build_cascade(build_root_system("G2"))
    assert c.roots == ((3, 2), (1, 0))


def test_cascade_roots_b3():
    c = build_cascade(build_root_system("B3"))
    assert c.roots == ((1, 2, 2), (0, 0, 1), (1, 0, 0))


def test_e_set_g2_frozen():
    c = build_cascade(build_root_system("G2"))
    top = c.forest[0]
    assert top.gamma == (3, 2)
    assert top.E_set == ((0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def test_heisenberg_pairs_sum_to_gamma():
    for t in ("A3", "B3", "C3", "G2", "D4"):
        c = build_cascade(build_root_system(t))
        for node in iter_nodes(c):
            assert len(node.pairs) * 2 + 1 == len(node.E_set)
            for a, b in node.pairs:
                assert tuple(x + y for x, y in zip(a, b)) == node.gamma


def test_verify_kostant_simple_types():
    for t in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(t)
        c = build_cascade(rs)
        report = verify_kostant(rs, c)
        assert report["size"] == len(c.roots)
        assert report["positive_roots"] == len(rs.positive_roots)
        assert sum(r["e_size"] for r in report["rows"]) == len(rs.positive_roots)


def test_verify_kostant_reducible():
    rs = build_root_system("B2xA1")
    report = verify_kostant(rs, build_cascade(rs))
    assert report["size"] == 3


def test_cascade_sizes():
    sizes = {}
    for t in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
              "D4", "D5", "G2", "F4"):
        sizes[t] = len(build_cascade(build_root_system(t)).roots)
    assert sizes == {
        "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3,
        "B2": 2, "B3": 3, "B4": 4, "C3": 3, "C4": 4,
        "D4": 4, "D5": 4, "G2": 2, "F4": 4,
    }


def test_cascade_pairwise_strongly_orthogonal():
    rs = build_root_system("C4")
    c = build_cascade(rs)
    for i in range(len(c.roots)):
        for j in range(i + 1, len(c.roots)):
            assert strongly_orthogonal(rs, c.roots[i], c.roots[j])


def test_descendants_rejects_non_high_root():
    # (0,1,1) in B3 is supported on a B2 whose highest root is (0,1,2)
    rs = build_root_system("B3")
    with pytest.raises(ValueError):
        descendants(rs, (0, 1, 1))


def test_descendants_of_highest_root():
    rs = build_root_system("A3")
    assert descendants(rs, (1, 1, 1)) == [(0, 1, 0)]
    rs2 = build_root_system("D4")
    assert descendants(rs2, (1, 2, 1, 1)) == [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)]


def test_forest_built_once_per_root_system(monkeypatch):
    # every node of every forest is built once, for the workload's sequence
    # of cascade, Kostant check and top pair (whose recursion passes through
    # the cascades of the orthogonal subsystems)
    built = []
    real = cascade._build_node

    def recording(rs, gamma):
        built.append((rs, gamma))  # holds rs, so no id is reused
        return real(rs, gamma)

    monkeypatch.setattr(cascade, "_build_node", recording)
    rs = build_root_system("E6")
    verify_kostant(rs, build_cascade(rs))
    build_top_pair(rs)
    systems = {id(r): r for r, _ in built}
    assert rs in systems.values() and len(systems) > 1
    for key, r in systems.items():
        gammas = [g for s, g in built if id(s) == key]
        assert len(gammas) == len(set(gammas)) == len(build_cascade(r).roots)


def test_forest_memo_holds_no_root_system():
    # a bounded walk over what the cached forest refers to (classes are not
    # entered) meets no root system, so the memo makes no cycle through rs
    rs = build_root_system("E7")
    first = build_cascade(rs).roots
    assert build_cascade(rs).roots == first
    seen = set()
    stack = [rs.cache["cascade"]]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, RootSystem)
        assert len(seen) < 100000
        stack.extend(gc.get_referents(obj))


def _by_height(r):
    return (sum(r), r)


def _reference_node(rs, gamma):
    # the node from its definition, with one pairing call per root and per
    # pair of roots: (gamma, support, E-set, pairs, children)
    supp, sub = support_subsystem(rs, gamma)
    e_set = tuple(sorted((m for m in sub if pairing(rs, m, gamma) > 0), key=_by_height))
    pairs = {
        tuple(sorted((m, tuple(g - c for g, c in zip(gamma, m))), key=_by_height))
        for m in e_set
        if m != gamma
    }
    remaining = [d for d in sub if pairing(rs, d, gamma) == 0]
    tops = []
    while remaining:
        stack, comp = [remaining.pop(0)], []
        while stack:
            x = stack.pop()
            comp.append(x)
            stack.extend(y for y in remaining if pairing(rs, x, y) != 0)
            remaining = [y for y in remaining if pairing(rs, x, y) == 0]
        tops.append(max(comp, key=_by_height))
    tops.sort(key=lambda r: (-sum(r), r))
    children = tuple(_reference_node(rs, d) for d in tops)
    return gamma, supp, e_set, tuple(sorted(pairs, key=lambda p: _by_height(p[0]))), children


def _as_tuple(node):
    children = tuple(_as_tuple(ch) for ch in node.children)
    return node.gamma, node.support, node.E_set, node.pairs, children


@pytest.mark.parametrize(
    "t",
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "G2xA1", "B2xG2", "A1xA1xA1"],
)
def test_forest_matches_a_pairing_per_root_reference(t):
    rs = build_root_system(t)
    got = tuple(_as_tuple(node) for node in build_cascade(rs).forest)
    want = tuple(_reference_node(rs, th) for th in highest_roots(rs))
    assert got == want
