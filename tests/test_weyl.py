"""Weyl group elements as root permutations: lengths, words, codecs, and
the integer-matrix view checked against matrix arithmetic."""

import ast
import copy
import gc
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from flagloci.bruhat import get_table
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
    is_right_descent,
    kernel_dim,
    left_descents,
    length,
    longest_element,
    multiply,
    parse_perm,
    perm_from_string,
    perm_string,
    perm_to_element,
    reduced_word,
    reflection,
    reflection_length,
    right_descents,
    roots_of_word,
    simple_reflection,
    simple_times,
    smallest_left_descent,
    smallest_right_descent,
    times_simple,
)
from flagloci.weyl import _reflection_perm


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


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1", "F4", "E6"])
def test_longest_element_is_kept_per_root_system(t):
    rs = build_root_system(t)
    w0 = longest_element(rs)
    assert rs.cache["longest"] == w0.perm
    assert longest_element(rs) == w0 and longest_element(rs) == w0
    assert length(w0) == len(rs.positive_roots)
    assert all(not is_positive_root(rs, act(w0, b)) for b in rs.positive_roots)
    # a pickled copy starts with an empty cache and builds an equal element
    back = pickle.loads(pickle.dumps(rs))
    assert "longest" not in back.cache
    assert longest_element(back).perm == w0.perm
    assert back.cache["longest"] == w0.perm
    if t != "E6":
        # on an enumerated group it is the pooled object, the last element,
        # also where the permutation was kept before the enumeration
        group = enumerate_group(rs)
        assert longest_element(rs) is group[-1] is longest_element(rs)


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


def test_words_match_the_element_oracle():
    # seeded random words, against a product of simple_reflection elements
    # and against act of each prefix on its simple root
    rng = random.Random(11)
    for t in ("A3", "B3", "G2xA1", "D4", "F4"):
        rs = build_root_system(t)
        n = rs.rank
        words = []
        for _ in range(40):
            size = rng.randrange(len(rs.positive_roots) + 3)
            words.append(tuple(rng.randint(1, n) for _ in range(size)))
            # a random reduced word: each letter ascends from its prefix
            x, word = identity(rs), []
            for _ in range(rng.randrange(len(rs.positive_roots) + 1)):
                i = rng.choice([j for j in range(1, n + 1) if j not in right_descents(x)])
                x = multiply(x, simple_reflection(rs, i))
                word.append(i)
            words.append(tuple(word))
        reduced = 0
        for word in words:
            prefix = identity(rs)
            roots = []
            for i in word:
                roots.append(act(prefix, rs.simple_root(i)))
                prefix = multiply(prefix, simple_reflection(rs, i))
            assert from_word(rs, word) == prefix
            assert from_word(rs, list(word)) == prefix
            if all(is_positive_root(rs, b) for b in roots):
                assert roots_of_word(rs, word) == roots
                assert length(prefix) == len(word)
                reduced += 1
            else:
                with pytest.raises(ValueError, match=re.escape(f"word {word} is not reduced")):
                    roots_of_word(rs, word)
        assert 40 <= reduced < len(words)
        # bad letters raise where they stand, after any earlier failure
        for bad in (0, n + 1):
            for word in ((bad,), (1, bad), (1, 2, bad, 1)):
                for fn in (from_word, roots_of_word):
                    with pytest.raises(ValueError, match=f"^simple index {bad} out of range$"):
                        fn(rs, word)
            with pytest.raises(ValueError, match=re.escape(f"word {(1, 1, bad)} is not reduced")):
                roots_of_word(rs, (1, 1, bad))


def test_descents():
    rs = build_root_system("A2")
    w = from_word(rs, (1, 2))
    assert right_descents(w) == [2]
    assert left_descents(w) == [1]


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1", "D4", "F4", "E6"])
def test_one_letter_descent_matches_descent_list(t):
    rs = build_root_system(t)
    rng = random.Random(t)
    for _ in range(40):
        w = from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 30))])
        descents = right_descents(w)
        assert [i for i in range(1, rs.rank + 1) if is_right_descent(w, i)] == descents
        assert smallest_right_descent(w) == (descents[0] if descents else None)
    for bad in (0, rs.rank + 1):
        with pytest.raises(ValueError, match=f"^simple index {bad} out of range$"):
            simple_reflection(rs, bad)
        with pytest.raises(ValueError, match=f"^simple index {bad} out of range$"):
            is_right_descent(identity(rs), bad)


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


def _fraction_nullity(matrix):
    """Gauss-Jordan on Fractions: the oracle for the fraction-free route."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / top[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return n - rank


def test_kernel_dim_matches_fraction_oracle():
    rng = random.Random(20240607)
    seen = set()
    for n in range(1, 9):
        for _ in range(40):
            # n - k random rows with entries up to +-50, then k rows that
            # repeat or combine them (zero rows included), in shuffled order
            k = rng.randrange(n)
            rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n - k)]
            for _ in range(k):
                a, b = rng.choice(rows), rng.choice(rows)
                ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append([ca * x + cb * y for x, y in zip(a, b)])
            rng.shuffle(rows)
            want = _fraction_nullity(rows)
            assert kernel_dim(rows) == want, rows
            seen.add((n, want))
    assert {d for n, d in seen if n == 8} >= {0, 1, 2, 3}


def test_reflection_matrices_are_involutions():
    rs = build_root_system("G2")
    for b in rs.positive_roots:
        r = reflection(rs, b)
        assert is_involution(r)
        assert reflection_length(r) == 1
    with pytest.raises(ValueError):
        reflection(rs, (2, 0))  # 2 a_1 is integral but not a root


def reflection_oracle(rs, b):
    """The permutation of s_b from the form: r -> r - 2(r, b)/(b, b) b,
    with (e_i, b) and (r, b) as generator sums over the rank."""
    fb = [sum(f * c for f, c in zip(row, b)) for row in rs.form]
    bb = sum(c * f for c, f in zip(b, fb))
    images = []
    for r in rs.roots:
        k = Fraction(2 * sum(c * f for c, f in zip(r, fb)), bb)
        assert k.denominator == 1
        images.append(rs.root_index[tuple(c - int(k) * x for c, x in zip(r, b))])
    return tuple(images)


@pytest.mark.parametrize("t", ["A3", "B3", "C3", "G2xA1", "D4", "F4", "E6", "E7"])
def test_reflection_perm_matches_form_oracle(t):
    # highest roots first and negatives before positives, so the descent
    # s_b = s_i s_{s_i b} s_i recurses down from a cold cache
    rs = build_root_system(t)
    n_pos = len(rs.positive_roots)
    for k in reversed(range(len(rs.roots))):
        b = rs.roots[k]
        assert _reflection_perm(rs, b) == reflection_oracle(rs, b), b
        neg = rs.roots[(k + n_pos) % (2 * n_pos)]
        assert reflection(rs, b) == reflection(rs, neg)
        assert _reflection_perm(rs, neg) is _reflection_perm(rs, b)
    # one stored permutation per positive root, none per negative one
    assert set(rs.cache["reflections"]) == set(rs.positive_roots)
    for i in range(1, rs.rank + 1):
        assert simple_reflection(rs, i) == reflection(rs, rs.simple_root(i))


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


def test_parse_perm_rejects_bad_entries():
    assert parse_perm("2143") == (2, 1, 4, 3)
    assert parse_perm(" 2, 1,10 ") == (2, 1, 10)
    for text in ("", "1a3", "1,2,,3", "1,2,x,4", ",", "-1,2"):
        with pytest.raises(ValueError, match="cannot parse permutation"):
            parse_perm(text)


def test_perm_string_of_longest():
    rs = build_root_system("A3")
    assert perm_string(longest_element(rs)) == "4321"
    assert perm_string(identity(rs)) == "1234"


def test_simple_reflection_as_transposition():
    rs = build_root_system("A3")
    assert element_to_perm(simple_reflection(rs, 1)) == (2, 1, 3, 4)
    assert element_to_perm(simple_reflection(rs, 3)) == (1, 2, 4, 3)


def test_matrix_is_private_to_weyl():
    # only weyl.py may read an element's permutation, matrix or private
    # slots, or import weyl's private names
    src = Path(__file__).resolve().parents[1] / "src" / "flagloci"
    private = ("matrix", "perm", "_right", "_inv", "_len", "_rword")
    offences = []
    for path in sorted(src.glob("*.py")):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
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


def test_elements_are_made_only_by_make():
    # every element is built by weyl._make, so no constructor bypasses the
    # pool of an enumerated group
    src = Path(__file__).resolve().parents[1] / "src" / "flagloci"
    offences, inside_make = [], 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "weyl.py":
            make = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_make"
            )
            allowed = {id(n) for n in ast.walk(make)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name != "WeylElement":
                continue
            if id(node) in allowed:
                inside_make += 1
            else:
                offences.append(f"{path.name}:{node.lineno} calls WeylElement(")
    assert offences == []
    assert inside_make == 1


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1"])
def test_enumerated_group_has_one_object_per_element(t):
    rs = build_root_system(t)
    table = get_table(rs)
    els = table.elements
    own = lambda x: els[table.index[x]]
    assert list(rs.cache["elements"].values()) == els
    assert all(a is b for a, b in zip(enumerate_group(rs), els))
    assert identity(rs) is els[0]
    for i in range(1, rs.rank + 1):
        s = simple_reflection(rs, i)
        assert s is own(s)
    for b in rs.positive_roots:
        t_b = reflection(rs, b)
        assert t_b is own(t_b)
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    for w in els:
        assert inverse(w) is own(inverse(w))
        assert from_word(rs, reduced_word(w)) is w
        assert multiply(w, inverse(w)) is els[0]
        for s in gens:
            assert w * s is own(w * s)
            assert s * w is own(s * w)


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1"])
def test_pooled_elements_know_their_simple_neighbours(t):
    rs = build_root_system(t)
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    for w in enumerate_group(rs):
        for i, s in enumerate(gens, 1):
            assert times_simple(w, i) is w * s
            assert times_simple(times_simple(w, i), i) is w


@pytest.mark.parametrize("t", ["A3", "B3", "G2xA1"])
def test_pooled_lookups_match_an_unpooled_group(t):
    # the facts a pooled element keeps (inverse, neighbours) answer as the
    # permutation products of a group without a pool do; the descents are
    # also checked against the length, which counts inversions and so does
    # not depend on where the simple roots sit in the root order
    pooled, fresh = build_root_system(t), build_root_system(t)
    els = enumerate_group(pooled)
    assert "elements" not in fresh.cache
    n = pooled.rank
    for w in els:
        word = reduced_word(w)
        u = from_word(fresh, word)
        assert from_word(pooled, word) is w and u._right is None
        assert inverse(inverse(w)) is w
        assert inverse(w).perm == inverse(u).perm
        assert right_descents(w) == right_descents(u)
        assert smallest_right_descent(w) == smallest_right_descent(u)
        assert left_descents(w) == left_descents(u)
        assert smallest_left_descent(w) == smallest_left_descent(u)
        for i in range(1, n + 1):
            assert is_right_descent(w, i) == is_right_descent(u, i)
            for x in (w, u):
                assert is_right_descent(x, i) == (length(times_simple(x, i)) < length(x))
            assert simple_times(i, w).perm == simple_times(i, u).perm
            assert from_word(pooled, word + (i,)).perm == from_word(fresh, word + (i,)).perm
    assert "elements" not in fresh.cache


def test_times_simple_without_a_pool_is_the_product():
    rs = build_root_system("E6")
    rng = random.Random(26)
    for _ in range(5):
        w = from_word(rs, [rng.randint(1, 6) for _ in range(rng.randint(0, 20))])
        for i in range(1, 7):
            assert times_simple(w, i) == w * simple_reflection(rs, i)
            assert simple_times(i, w) == simple_reflection(rs, i) * w
    assert "elements" not in rs.cache


@pytest.mark.parametrize("t", ["B3", "E6"])
def test_simple_index_out_of_range_is_refused(t):
    # B3 is pooled and E6 is not; on a pooled element an index of 0 would
    # otherwise read the last neighbour, and one of rank + 1 an unset
    # descent bit
    rs = build_root_system(t)
    if t == "B3":
        enumerate_group(rs)
    w = from_word(rs, (1, 2))
    for i in (0, rs.rank + 1):
        with pytest.raises(ValueError, match="out of range"):
            times_simple(w, i)
        with pytest.raises(ValueError, match="out of range"):
            simple_times(i, w)
        with pytest.raises(ValueError, match="out of range"):
            is_right_descent(w, i)
        with pytest.raises(ValueError, match="out of range"):
            from_word(rs, (i,))
    assert ("elements" in rs.cache) == (t == "B3")


def test_inverse_leaves_no_cyclic_garbage():
    # elements outside a pool hold no references to each other, so
    # reference counting alone frees an inverted element
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


def test_elements_of_two_types_differ():
    # B2 and C2 number their roots alike, so their identities and longest
    # elements have equal permutations; a copy is rebuilt on the same type
    # and still equals its original
    b2, c2 = build_root_system("B2"), build_root_system("C2")
    for make in (identity, longest_element):
        x, y = make(b2), make(c2)
        assert x.perm == y.perm
        assert x != y and y != x
        assert len({x, y}) == 2
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(y)) == y
        assert make(build_root_system("B2")) == x


def test_pooled_elements_pickle_and_copy():
    # a pooled element keeps its neighbours and its inverse; pickling them
    # as its state would walk F4's 1152 elements depth-first, past the
    # recursion limit
    rs = build_root_system("F4")
    ws = enumerate_group(rs)
    assert all(inverse(inverse(w)) is w for w in ws)
    back = pickle.loads(pickle.dumps(ws))
    assert back == ws
    assert back[0].rs is not rs and "elements" not in back[0].rs.cache
    assert all(copy.copy(w) is w for w in ws[:50])
    assert copy.deepcopy(ws[-1]) == ws[-1]


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
