"""Constructive pipeline for the top-dimensional witnessed pair."""

from fractions import Fraction

import pytest

from flagloci import construct
from flagloci.cascade import build_cascade
from flagloci.construct import (
    build_top_pair,
    build_u_for_theta,
    build_v,
    orthogonal_subsystem,
)
from flagloci.gcr import enumerate_gcr, make_gcr_pair
from flagloci.rootsys import build_root_system, highest_roots, is_positive_root, pairing
from flagloci.weyl import (
    from_word,
    inversion_set,
    inverse,
    act,
    length,
    longest_element,
    multiply,
)


def test_u_words_frozen():
    assert build_u_for_theta(build_root_system("G2")) == (2, 1)
    assert build_u_for_theta(build_root_system("C3")) == (1, 2)
    assert build_u_for_theta(build_root_system("B3")) == (2, 3, 1)
    assert build_u_for_theta(build_root_system("F4")) == (1, 2, 3, 4, 2, 3, 1)
    # the single-laced words come from the greedy height descent
    greedy = {
        "A2": (1,),
        "A5": (1, 2, 3, 4),
        "D4": (2, 1, 3, 2),
        "D5": (2, 1, 3, 2, 4, 3),
        "E6": (2, 4, 3, 1, 5, 4, 2, 3, 4, 5),
        "E7": (1, 3, 4, 2, 5, 4, 3, 1, 6, 5, 4, 2, 3, 4, 5, 6),
        "E8": (8, 7, 6, 5, 4, 2, 3, 1, 4, 3, 5, 4, 2, 6, 5, 4, 3, 1, 7, 6, 5, 4, 2, 3, 4, 5, 6, 7),
    }
    for t, word in greedy.items():
        assert build_u_for_theta(build_root_system(t)) == word, t
    # a reducible system concatenates its components' words in ambient
    # labels: E6xF4 is E6's greedy word, then F4's word shifted by 6
    assert build_u_for_theta(build_root_system("D4xA1")) == (3, 2, 4, 3)
    assert build_u_for_theta(build_root_system("E6xF4")) == (
        greedy["E6"] + tuple(i + 6 for i in (1, 2, 3, 4, 2, 3, 1))
    )


def test_u_inversions_inside_e_theta():
    for t in ("B2", "B3", "C3", "C4", "D4", "G2", "F4"):
        rs = build_root_system(t)
        theta = highest_roots(rs)[0]
        word = build_u_for_theta(rs)
        u = from_word(rs, word)
        casc = build_cascade(rs)
        e_theta = set(casc.forest[0].E_set)
        assert inversion_set(u) <= e_theta
        # u^{-1}(theta) must be a simple root
        img = act(inverse(u), theta)
        assert sum(img) == 1 and all(c in (0, 1) for c in img)


def test_orthogonal_subsystem_types():
    expected = {
        "B3": "A1xA1",
        "B4": "A1xB2",
        "C3": "B2",
        "D4": "A1xA1xA1",
        "G2": "A1",
        "F4": "C3",
        "E6": "A5",
        "E7": "D6",
        "E8": "E7",
        # one child for all components, orthogonal to every u^{-1}(theta_c)
        "D4xA1": "A1xA1xA1",
        "E6xF4": "A5xC3",
        "B4xC3xD5": "A1xA1xA3xB2xB2",
    }
    for t, child in expected.items():
        rs = build_root_system(t)
        u = from_word(rs, build_u_for_theta(rs))
        sub = orthogonal_subsystem(rs, u)
        assert str(sub.child.cartan_type) == child
        # the child's Cartan matrix is the form on pi_prime, label by label
        pi = sub.pi_prime
        assert sub.child.cartan == tuple(
            tuple(Fraction(2 * pairing(rs, a, b), pairing(rs, a, a)) for b in pi) for a in pi
        )
        # ambient images of child roots are honest roots orthogonal to theta,
        # the combination sum_k beta_k pi_prime[k] of the child's simple roots
        for beta in sub.child.positive_roots:
            amb = sub.to_ambient(beta)
            assert is_positive_root(rs, amb)
            want = [0] * rs.rank
            for c, alpha in zip(beta, pi):
                want = [x + c * y for x, y in zip(want, alpha)]
            assert amb == tuple(want)


def test_top_pair_d_values():
    expected = {
        "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3,
        "B2": 2, "B3": 3, "B4": 4,
        "C3": 3, "D4": 4, "G2": 2, "F4": 4,
    }
    for t, d in expected.items():
        rs = build_root_system(t)
        pair = build_top_pair(rs)
        assert pair.d == d
        assert pair.d == len(build_cascade(rs).roots)


def test_top_pair_reducible():
    pair = build_top_pair(build_root_system("A2xB2"))
    assert pair.d == 3


def test_top_pair_is_maximal_among_sweep():
    # build_top_pair runs no sweep of its own: the tests own this check,
    # reducible types included
    for t in ("A2", "A3", "B2", "A2xB2", "G2xA1"):
        rs = build_root_system(t)
        pair = build_top_pair(rs)
        poset = enumerate_gcr(rs)
        assert pair.d == max(p.d for p in poset.maximal_pairs())


def test_top_pair_structure():
    rs = build_root_system("B3")
    pair = build_top_pair(rs)
    w0 = longest_element(rs)
    assert multiply(w0, pair.v).matrix == pair.w.matrix
    assert length(pair.w) - length(pair.v) == pair.d
    # the pair really is witnessed
    assert make_gcr_pair(pair.v, pair.w).d == pair.d
    # one twin of each matched pair, never both
    inv = inversion_set(pair.v)
    for gamma, mu, nu, chosen in pair.certificate:
        assert (mu in inv) != (nu in inv)
        assert chosen in inv


def test_build_v_length():
    for t in ("A4", "C3", "D4", "G2"):
        rs = build_root_system(t)
        v = build_v(rs)
        m = len(build_cascade(rs).roots)
        assert 2 * length(v) == len(rs.positive_roots) - m


def recorded_builds(monkeypatch) -> list[str]:
    """The names ``construct`` passes to ``build_root_system`` from now on."""
    names = []
    real = construct.build_root_system

    def recording(name):
        names.append(name)
        return real(name)

    monkeypatch.setattr(construct, "build_root_system", recording)
    return names


LEVEL_BUILDS = {
    "E7": ["D6", "A1xD4", "A1xA1xA1"],
    "D7": ["A1xD5", "A1xA3", "A1"],
    "B6": ["A1xB4", "A1xB2", "A1"],
    "E8": ["E7", "D6", "A1xD4", "A1xA1xA1"],
}


@pytest.mark.parametrize("t", list(LEVEL_BUILDS))
def test_build_v_reuses_a_simple_system(t, monkeypatch):
    # the system itself is never built again, and each level of the
    # recursion builds its one orthogonal child, reducible or not
    rs = build_root_system(t)
    names = recorded_builds(monkeypatch)
    build_v(rs)
    assert names == LEVEL_BUILDS[t]


def test_build_v_builds_each_component(monkeypatch):
    rs = build_root_system("D4xA1")
    names = recorded_builds(monkeypatch)
    v = build_v(rs)
    # components are sorted (A1 first) and solved side by side, so no
    # component is built on its own: A1 adds nothing orthogonal to its
    # theta, D4 adds A1xA1xA1, and that one child is the only build
    assert rs.cartan_type.components == (("A", 1), ("D", 4))
    assert names == ["A1xA1xA1"]
    assert 2 * length(v) == len(rs.positive_roots) - len(build_cascade(rs).roots)


@pytest.mark.parametrize(
    # the elements the per-component build gave; the one recursion builds
    # one child per level and none where nothing is orthogonal
    "t, word, builds",
    [
        ("A1xA1xA1", (), []),
        ("A3xA3", (1, 2, 4, 5), ["A1xA1"]),
        ("B2xB2", (2, 4), ["A1xA1"]),
        ("A2xA2xA1", (2, 4), []),
        (
            "E6xF4",
            (1, 2, 3, 4, 2, 3, 1, 5, 4, 2, 3, 1, 4, 3, 5, 4, 7, 9, 8, 9, 10, 9, 8, 7, 9, 10),
            ["A5xC3", "A3xB2", "A1xA1"],
        ),
        (
            "B4xC3xD5",
            (2, 1, 4, 3, 2, 4, 5, 6, 5, 9, 8, 10, 9, 11, 10, 9, 8),
            ["A1xA1xA3xB2xB2", "A1xA1xA1"],
        ),
    ],
)
def test_build_v_builds_each_component_type_once(t, word, builds, monkeypatch):
    rs = build_root_system(t)
    names = recorded_builds(monkeypatch)
    v = build_v(rs)
    assert v == from_word(rs, word)
    assert names == builds
