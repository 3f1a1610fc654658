"""Weyl group elements as root permutations: lengths, words, codecs, and
the integer-matrix view checked against matrix arithmetic."""

import ast
import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flagloci.rootsys import build_root_system, is_positive_root, pairing
from flagloci.weyl import (
    GroupTooLargeError,
    WeylElement,
    act,
    all_reduced_words,
    eigenspace_dim,
    element_to_perm,
    enumerate_group,
    from_word,
    identity,
    inverse,
    inversion_set,
    is_involution,
    is_reduced,
    kernel_dim,
    left_descents,
    length,
    longest_element,
    multiply,
    perm_from_string,
    perm_string,
    perm_to_element,
    reduced_word,
    reflection,
    reflection_length,
    right_descents,
    roots_of_word,
    simple_reflection,
)


def test_group_orders_by_enumeration():
    for t, n in (("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("B3", 48)):
        assert len(enumerate_group(build_root_system(t))) == n


def test_cap_raises():
    with pytest.raises(GroupTooLargeError):
        enumerate_group(build_root_system("E8"), cap=1000)


def test_identity_and_simple_lengths():
    rs = build_root_system("B2")
    assert length(identity(rs)) == 0
    for i in (1, 2):
        assert length(simple_reflection(rs, i)) == 1


def test_longest_element():
    for t in ("A2", "A3", "B2", "G2", "F4"):
        rs = build_root_system(t)
        w0 = longest_element(rs)
        assert length(w0) == len(rs.positive_roots)
        assert is_involution(w0)
        assert not right_descents(multiply(w0, w0))


def test_reduced_word_round_trip():
    rs = build_root_system("B3")
    for w in enumerate_group(rs):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert from_word(rs, word).matrix == w.matrix
        assert is_reduced(rs, word)


def test_all_reduced_words_a2():
    rs = build_root_system("A2")
    w0 = longest_element(rs)
    words = all_reduced_words(w0)
    assert sorted(words) == [(1, 2, 1), (2, 1, 2)]


def test_inversion_set_size_is_length():
    rs = build_root_system("A3")
    for w in enumerate_group(rs):
        inv = inversion_set(w)
        assert len(inv) == length(w)
        assert all(is_positive_root(rs, r) for r in inv)


def test_roots_of_word():
    rs = build_root_system("A2")
    assert roots_of_word(rs, (1, 2, 1)) == [(1, 0), (1, 1), (0, 1)]
    with pytest.raises(Exception):
        roots_of_word(rs, (1, 1))


def test_descents():
    rs = build_root_system("A2")
    w = from_word(rs, (1, 2))
    assert right_descents(w) == [2]
    assert left_descents(w) == [1]


def test_reflection_length_matches_brute_force():
    # oracle: breadth-first distance from w to e in the reflection generators
    for t in ("A2", "B2"):
        rs = build_root_system(t)
        refl = [reflection(rs, b) for b in rs.positive_roots]

        def brute(w):
            if length(w) == 0:
                return 0
            seen = {w.matrix}
            layer = [w]
            for k in range(1, 6):
                nxt = []
                for x in layer:
                    for r in refl:
                        y = multiply(r, x)
                        if length(y) == 0:
                            return k
                        if y.matrix not in seen:
                            seen.add(y.matrix)
                            nxt.append(y)
                layer = nxt
            raise AssertionError("unreachable")

        for w in enumerate_group(rs):
            assert reflection_length(w) == brute(w)


def test_reflection_length_longest():
    assert reflection_length(longest_element(build_root_system("A2"))) == 1
    assert reflection_length(longest_element(build_root_system("B2"))) == 2
    assert reflection_length(longest_element(build_root_system("A3"))) == 2
    assert reflection_length(longest_element(build_root_system("G2"))) == 2
    assert reflection_length(longest_element(build_root_system("B3"))) == 3


def test_kernel_dim():
    assert kernel_dim(((1, 0), (0, 1))) == 0
    assert kernel_dim(((0, 0), (0, 0))) == 2
    assert kernel_dim(((1, 1), (1, 1))) == 1
    # eigenspace_dim against the explicitly shifted matrix, both signs
    for t in ("A3", "B3"):
        rs = build_root_system(t)
        n = rs.rank
        for w in enumerate_group(rs):
            for sign in (1, -1):
                shifted = [
                    [w.matrix[i][j] - (sign if i == j else 0) for j in range(n)]
                    for i in range(n)
                ]
                assert eigenspace_dim(w, sign) == kernel_dim(shifted)


def test_reflection_matrices_are_involutions():
    rs = build_root_system("G2")
    for b in rs.positive_roots:
        r = reflection(rs, b)
        assert is_involution(r)
        assert reflection_length(r) == 1
    with pytest.raises(ValueError):
        reflection(rs, (2, 0))  # 2 a_1 is integral but not a root


def test_perm_codec_round_trip():
    rs = build_root_system("A3")
    for w in enumerate_group(rs):
        p = element_to_perm(w)
        assert sorted(p) == [1, 2, 3, 4]
        assert perm_to_element(rs, p).matrix == w.matrix
        assert perm_from_string(rs, perm_string(w)).matrix == w.matrix


def test_perm_composition_convention():
    # multiply(a, b) acts as the permutation a-after-b
    rs = build_root_system("A3")
    els = enumerate_group(rs)
    rng = random.Random(0)
    for _ in range(50):
        a, b = rng.choice(els), rng.choice(els)
        pa, pb = element_to_perm(a), element_to_perm(b)
        assert element_to_perm(multiply(a, b)) == tuple(pa[pb[i] - 1] for i in range(4))


def test_perm_string_of_longest():
    rs = build_root_system("A3")
    assert perm_string(longest_element(rs)) == "4321"
    assert perm_string(identity(rs)) == "1234"


def test_simple_reflection_as_transposition():
    rs = build_root_system("A3")
    assert element_to_perm(simple_reflection(rs, 1)) == (2, 1, 3, 4)
    assert element_to_perm(simple_reflection(rs, 3)) == (1, 2, 4, 3)


def test_matrix_is_private_to_weyl():
    # only weyl.py may read an element's permutation or matrix, or import
    # weyl's private names
    src = Path(__file__).resolve().parents[1] / "src" / "flagloci"
    offences = []
    for path in sorted(src.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("matrix", "perm"):
                offences.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 1
                and node.module == "weyl"
            ):
                offences += [
                    f"{path.name}:{node.lineno} imports weyl.{a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offences == []


def test_inverse_leaves_no_cyclic_garbage():
    # elements hold no references to each other, so reference counting
    # alone frees an inverted element
    rs = build_root_system("A3")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        w = inverse(from_word(rs, (1, 2, 3)))
        w0 = inverse(longest_element(rs))
        del w, w0
        gc.collect()
        leaked = [x for x in gc.garbage if isinstance(x, WeylElement)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _mat_vec(m, v):
    return tuple(sum(x * c for x, c in zip(row, v)) for row in m)


def test_permutation_core_matches_matrix_oracle():
    # every element of A3, B3 and G2xA1 and a seeded sample of F4 pairs,
    # against integer matrix arithmetic on the simple-root coordinates
    rng = random.Random(6)
    for t in ("A3", "B3", "G2xA1", "F4"):
        rs = build_root_system(t)
        n = rs.rank
        els = enumerate_group(rs)
        if t == "F4":
            pairs = [(rng.choice(els), rng.choice(els)) for _ in range(300)]
            singles = rng.sample(els, 300)
        else:
            pairs = [(a, b) for a in els for b in els]
            singles = els
        for a, b in pairs:
            assert multiply(a, b).matrix == _mat_mul(a.matrix, b.matrix)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for w in singles:
            assert _mat_mul(inverse(w).matrix, w.matrix) == eye
            images = [_mat_vec(w.matrix, b) for b in rs.positive_roots]
            assert [act(w, b) for b in rs.positive_roots] == images
            v = tuple(range(1, n + 1))  # not a root in these types
            assert act(w, v) == _mat_vec(w.matrix, v)
            negative = [x for x in images if all(c <= 0 for c in x)]
            assert length(w) == len(negative)
            assert inversion_set(w) == {tuple(-c for c in x) for x in negative}
            cols = list(zip(*w.matrix))
            assert right_descents(w) == [i + 1 for i in range(n) if all(c <= 0 for c in cols[i])]
        for b in rs.positive_roots:
            want = []
            for j in range(n):
                e = tuple(int(j == k) for k in range(n))
                coeff = Fraction(2 * pairing(rs, e, b), pairing(rs, b, b))
                want.append([e[k] - coeff * b[k] for k in range(n)])
            assert reflection(rs, b).matrix == tuple(zip(*want))
