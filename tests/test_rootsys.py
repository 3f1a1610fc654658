"""Root system construction, bilinear form, reflections, classification."""

from fractions import Fraction

import pytest

from flagloci.rootsys import (
    CartanType,
    add_roots,
    build_root_system,
    classify_component,
    dual_coxeter_number,
    highest_roots,
    is_positive_root,
    is_root,
    orthogonal,
    orthogonality_masks,
    pairing,
    reflect,
    simple_lowering,
    strongly_orthogonal,
    weyl_order,
)
from flagloci.rootsys import _form_image
from flagloci.weyl import _reflection_perm


def test_cartan_matrices():
    assert build_root_system("A2").cartan == ((2, -1), (-1, 2))
    assert build_root_system("B2").cartan == ((2, -1), (-2, 2))
    assert build_root_system("C3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build_root_system("G2").cartan == ((2, -3), (-1, 2))
    assert build_root_system("F4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


def test_symmetrizers():
    assert build_root_system("B3").symmetrizers == (2, 2, 1)
    assert build_root_system("C3").symmetrizers == (1, 1, 2)
    assert build_root_system("G2").symmetrizers == (1, 3)
    assert build_root_system("F4").symmetrizers == (2, 2, 1, 1)


def test_component_canonical_order():
    t = CartanType.parse("B2xA1")
    assert t.components == (("A", 1), ("B", 2))
    assert str(t) == "A1xB2"
    assert str(CartanType.parse("a3")) == "A3"


def test_bad_type_rejected():
    with pytest.raises(ValueError):
        CartanType.parse("Z9")
    with pytest.raises(ValueError):
        CartanType.parse("E9")
    with pytest.raises(ValueError):
        CartanType.parse("B1")


# the token grammar: one letter in A-G or a-g, then one or more ASCII
# digits, checked on each "x"-separated part after strip()
@pytest.mark.parametrize(
    "text, want",
    [("a3", "A3"), ("A03", "A3"), (" B2 x A1 ", "A1xB2"), ("A3\n", "A3"), ("E08", "E8")],
)
def test_cartan_token_accepted(text, want):
    assert str(CartanType.parse(text)) == want


@pytest.mark.parametrize(
    "text, token",
    [
        ("", ""),
        ("A", "A"),
        ("3", "3"),
        ("H3", "H3"),
        ("A-1", "A-1"),
        ("A+3", "A+3"),
        ("A1_0", "A1_0"),
        ("A٣", "A٣"),  # ARABIC-INDIC DIGIT THREE
        ("A 3", "A 3"),
        ("AA3", "AA3"),
        ("A3X B2", "A3X B2"),
        ("A3x", ""),
    ],
)
def test_cartan_token_refused(text, token):
    with pytest.raises(ValueError) as err:
        CartanType.parse(text)
    assert str(err.value) == f"cannot parse Cartan type token {token!r}"


def test_positive_root_counts():
    expected = {
        "A1": 1,
        "A2": 3,
        "A3": 6,
        "B2": 4,
        "B3": 9,
        "C3": 9,
        "D4": 12,
        "G2": 6,
        "F4": 24,
        "E6": 36,
        "E7": 63,
        "E8": 120,
    }
    for t, n in expected.items():
        assert len(build_root_system(t).positive_roots) == n


def test_b2_positive_roots():
    rs = build_root_system("B2")
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))


def test_form_symmetric_and_reflection_involutive():
    for t in ("A3", "B3", "C3", "G2", "F4"):
        rs = build_root_system(t)
        for b in rs.positive_roots:
            for g in rs.positive_roots:
                assert pairing(rs, b, g) == pairing(rs, g, b)
                assert reflect(rs, b, reflect(rs, b, g)) == g
                assert is_root(rs, reflect(rs, b, g))


def test_reflect_fixes_orthogonal():
    rs = build_root_system("B2")
    long_root = (1, 0)
    other = (1, 2)
    assert orthogonal(rs, long_root, other)
    assert reflect(rs, long_root, other) == other
    assert reflect(rs, long_root, long_root) == (-1, 0)


def test_strong_orthogonality_b2():
    rs = build_root_system("B2")
    import itertools

    so = [
        (x, y)
        for x, y in itertools.combinations(rs.positive_roots, 2)
        if strongly_orthogonal(rs, x, y)
    ]
    # the two short roots (0,1), (1,1) are orthogonal but their sum is a root
    assert so == [((1, 0), (1, 2))]
    assert orthogonal(rs, (0, 1), (1, 1))
    assert not strongly_orthogonal(rs, (0, 1), (1, 1))


@pytest.mark.parametrize(
    # the DIGEST_TYPES of test_gcr_sweep.py, and F4
    "t",
    ("A2xA1", "B2xA1", "G2xA1", "A3", "A2xA2", "B3", "C3", "A4", "D4", "B2xB2", "F4"),
)
def test_orthogonality_masks_match_orthogonal(t):
    rs = build_root_system(t)
    masks = orthogonality_masks(rs)
    pos = rs.positive_roots
    assert len(masks) == len(pos)
    for k, b in enumerate(pos):
        assert [masks[k] >> j & 1 for j in range(len(pos))] == [
            orthogonal(rs, b, g) for g in pos
        ]
        assert masks[k] >> len(pos) == 0
    assert orthogonality_masks(rs) is masks  # built once per root system


def form_sum(rs, x, y):
    """(x, y) from scratch: sum over i, j of x_i form_ij y_j."""
    n = rs.rank
    return sum(x[i] * rs.form[i][j] * y[j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("t", ["B3", "G2xA1", "F4"])
def test_pairing_matches_form_sum(t):
    rs = build_root_system(t)
    roots = rs.roots
    half = [Fraction(k + 1, 2) for k in range(rs.rank)]
    thirds = tuple(Fraction(-k, 3) for k in range(rs.rank))
    for b in roots:
        for g in roots:
            assert pairing(rs, b, g) == form_sum(rs, b, g)
        for v in (half, thirds):
            assert pairing(rs, b, v) == form_sum(rs, b, v)
            assert pairing(rs, v, b) == form_sum(rs, v, b)
        assert pairing(rs, list(b), list(b)) == form_sum(rs, b, b)
    assert pairing(rs, half, thirds) == form_sum(rs, half, thirds)
    # a Fraction vector equal to a root reads the root's int image
    frac_root = tuple(Fraction(c) for c in roots[-1])
    assert pairing(rs, frac_root, roots[0]) == form_sum(rs, roots[-1], roots[0])
    for x, y in ((roots[0], roots[0][:-1]), (roots[0] + (0,), roots[0]), ([], [])):
        with pytest.raises(ValueError, match="vector length does not match rank"):
            pairing(rs, x, y)
    # only roots are kept, each under its own int tuple
    images = rs.cache["form_images"]
    assert set(images) <= set(roots)
    assert all(type(c) is int for b in images for c in b + images[b])
    assert len(images) <= len(roots)


@pytest.mark.parametrize("t", ["B3", "G2xA1", "C3"])
def test_reflect_matches_fraction_formula(t):
    rs = build_root_system(t)
    vectors = [list(b) for b in rs.roots[:4]] + [(2, -1, 3), (0, 0, 0)]
    vectors += [(Fraction(1, 2), Fraction(0), Fraction(-2, 3)), (Fraction(2), 1, 0)]
    for b in rs.roots:
        bb = form_sum(rs, b, b)
        for x in vectors:
            coeff = Fraction(2 * form_sum(rs, x, b), bb)
            want = tuple(Fraction(c) - coeff * y for c, y in zip(x, b))
            got = reflect(rs, b, x)
            assert got == want
            if all(c.denominator == 1 for c in want):
                assert all(type(c) is int for c in got)


# every simple type up to the ranks the workloads reach, and three products
DERIVED_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "G2xA1", "B2xG2", "A1xA1xA1"]
)


@pytest.mark.parametrize("t", DERIVED_TYPES)
def test_derived_root_data_match_the_form(t):
    # the pairings carried by the enumeration, the form images read off
    # them and the simple reflections built from them, each against its
    # definition
    rs = build_root_system(t)
    n = rs.rank
    assert len(rs.coroot_pairings) == len(rs.positive_roots)
    for b, p in zip(rs.positive_roots, rs.coroot_pairings):
        assert p == tuple(sum(rs.cartan[i][j] * b[j] for j in range(n)) for i in range(n))
    for b in rs.roots:
        image = _form_image(rs, b)
        assert image == tuple(sum(rs.form[i][j] * b[j] for j in range(n)) for i in range(n))
        assert all(type(c) is int for c in image)
    assert set(rs.cache["form_images"]) == set(rs.roots)
    for i in range(1, n + 1):
        perm = _reflection_perm(rs, rs.simple_root(i))
        for k, r in enumerate(rs.roots):
            assert rs.roots[perm[k]] == reflect(rs, rs.simple_root(i), r)
    # the enumerated roots against the orbit of the simple roots under the
    # form-based simple reflections, in (height, tuple) order
    simple = [rs.simple_root(i) for i in range(1, n + 1)]
    orbit, frontier = set(simple), list(simple)
    while frontier:
        r = frontier.pop()
        for a in simple:
            image = reflect(rs, a, r)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    assert len(orbit) == 2 * len(rs.positive_roots)
    positive = sorted((b for b in orbit if sum(b) > 0), key=lambda b: (sum(b), b))
    assert tuple(positive) == rs.positive_roots
    # so a_i is positive root n - i, where weyl reads the descents
    for i in range(1, n + 1):
        assert rs.positive_roots[n - i] == rs.simple_root(i)


@pytest.mark.parametrize("t", ["A3", "B3", "C4", "G2xA1", "F4", "E6"])
def test_simple_lowering_steps_down_by_one_reflection(t):
    rs = build_root_system(t)
    for b in rs.positive_roots:
        if sum(b) == 1:
            continue
        i, lower = simple_lowering(rs, b)
        assert lower == reflect(rs, rs.simple_root(i), b)
        assert is_positive_root(rs, lower) and sum(lower) < sum(b)
        # the smallest such i
        assert all(pairing(rs, b, rs.simple_root(j)) <= 0 for j in range(1, i))


def test_add_roots():
    rs = build_root_system("A2")
    assert add_roots(rs, (1, 0), (0, 1)) == (1, 1)
    assert add_roots(rs, (1, 1), (0, 1)) is None


def test_highest_roots():
    assert highest_roots(build_root_system("A3")) == [(1, 1, 1)]
    assert highest_roots(build_root_system("G2")) == [(3, 2)]
    assert highest_roots(build_root_system("B3")) == [(1, 2, 2)]
    two = highest_roots(build_root_system("A1xB2"))
    assert len(two) == 2


def _scan_highest_roots(rs):
    # the definition: the root of greatest height supported in each component
    out = []
    for comp in rs.components:
        inside = [b for b in rs.positive_roots if all(i in comp for i, x in enumerate(b) if x)]
        out.append(max(inside, key=sum))
    return out


@pytest.mark.parametrize(
    "t",
    ["A2xA1", "B2xA1", "G2xA1", "A3", "A2xA2", "B3", "C3", "A4", "D4", "B2xB2", "F4", "E6", "E7"],
)
def test_highest_roots_match_scan_once_per_system(t):
    rs = build_root_system(t)
    first = highest_roots(rs)
    assert first == _scan_highest_roots(rs)
    # kept in the cache: a later call reads no positive root, and hands out
    # a fresh list that the caller may change
    roots = rs.positive_roots
    rs.positive_roots = ()
    first.append(None)
    again = highest_roots(rs)
    rs.positive_roots = roots
    assert again == _scan_highest_roots(rs) and again is not first


def test_is_positive_root():
    rs = build_root_system("A2")
    assert is_positive_root(rs, (1, 1))
    assert not is_positive_root(rs, (-1, 0))
    assert not is_positive_root(rs, (2, 1))


def test_classify_component_round_trip():
    for t in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(t)
        idx = tuple(range(rs.rank))
        letter, rank, order = classify_component(rs.cartan, idx)
        assert (letter, rank) == (t[0], int(t[1:]))
        assert sorted(order) == list(idx)


def test_dual_coxeter_numbers():
    assert dual_coxeter_number("A", 3) == 4
    assert dual_coxeter_number("B", 3) == 5
    assert dual_coxeter_number("C", 3) == 4
    assert dual_coxeter_number("D", 4) == 6
    assert dual_coxeter_number("E", 8) == 30
    assert dual_coxeter_number("F", 4) == 9
    assert dual_coxeter_number("G", 2) == 4


def test_weyl_orders():
    assert weyl_order(CartanType.parse("A3")) == 24
    assert weyl_order(CartanType.parse("B3")) == 48
    assert weyl_order(CartanType.parse("G2")) == 12
    assert weyl_order(CartanType.parse("F4")) == 1152
    assert weyl_order(CartanType.parse("E8")) == 696729600
    assert weyl_order(CartanType.parse("A1xB2")) == 16


def test_heights_and_component_of():
    rs = build_root_system("G2")
    assert rs.height((3, 2)) == 5
    assert rs.height((1, 0)) == 1
    rs2 = build_root_system("A1xA2")
    assert rs2.component_of(0) == (0,)
    assert rs2.component_of(1) == rs2.component_of(2) == (1, 2)
