"""Word arithmetic, confluents, ends and the ultrametric."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import (
    EndPrefix,
    ReducedWord,
    ValidationError,
    ball,
    confluent,
    distance,
    format_word,
    free_group,
    horocycle,
    identity,
    multiply,
    parse_word,
    sphere,
    sphere_size,
    tree_alphabet,
    ultrametric,
    word,
)

F2 = free_group(2)
T3 = tree_alphabet(2)


def letters_strategy(alphabet, max_len=8):
    return st.lists(
        st.sampled_from(alphabet.letters), min_size=0, max_size=max_len
    )


# -- reduced words ---------------------------------------------------------


def test_reduction_cancels_adjacent_inverses():
    w = word(F2, [1, 2, -2, -1, 1])
    assert w.letters == (1,)


def test_identity_is_neutral():
    e = identity(F2)
    w = word(F2, [1, 2])
    assert e * w == w
    assert w * e == w
    assert w * w.inverse() == e


@given(letters_strategy(F2), letters_strategy(F2), letters_strategy(F2))
@settings(max_examples=200)
def test_multiplication_associative(a, b, c):
    x, y, z = word(F2, a), word(F2, b), word(F2, c)
    assert (x * y) * z == x * (y * z)


@given(letters_strategy(F2))
def test_inverse_is_involutive(a):
    x = word(F2, a)
    assert x.inverse().inverse() == x


@given(letters_strategy(F2), letters_strategy(F2))
def test_length_subadditive(a, b):
    x, y = word(F2, a), word(F2, b)
    assert len(multiply(x, y)) <= len(x) + len(y)


@given(letters_strategy(T3, max_len=6))
def test_involutive_letters_are_self_inverse(a):
    x = word(T3, a)
    assert (x * x.inverse()).is_identity


@pytest.mark.parametrize("alphabet", [F2, T3], ids=["free", "involutive"])
def test_reduced_word_checks_each_letter_once(monkeypatch, alphabet):
    calls = []
    real = type(alphabet).check_letter

    def counted(self, letter):
        calls.append(letter)
        return real(self, letter)

    monkeypatch.setattr(type(alphabet), "check_letter", counted)
    letters = (1, 2, 1, 2, 1, 2, 1)
    ReducedWord(alphabet, letters)
    assert calls == list(letters)


def test_reduced_word_rejects_bad_and_unreduced_letters():
    with pytest.raises(ValidationError, match="outside alphabet"):
        ReducedWord(F2, (1, 3))
    with pytest.raises(ValidationError, match="not reduced"):
        ReducedWord(F2, (2, 1, -1))
    with pytest.raises(ValidationError, match="not reduced"):
        ReducedWord(T3, (1, 3, 3))


# -- distance --------------------------------------------------------------


@given(letters_strategy(F2, max_len=6), letters_strategy(F2, max_len=6))
def test_distance_symmetric(a, b):
    x, y = word(F2, a), word(F2, b)
    assert distance(x, y) == distance(y, x)
    assert (distance(x, y) == 0) == (x == y)


@given(
    letters_strategy(F2, max_len=5),
    letters_strategy(F2, max_len=5),
    letters_strategy(F2, max_len=5),
)
@settings(max_examples=200)
def test_distance_triangle(a, b, c):
    x, y, z = word(F2, a), word(F2, b), word(F2, c)
    assert distance(x, z) <= distance(x, y) + distance(y, z)


# -- spheres and balls -----------------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sphere_matches_enumeration(q):
    ab = free_group(1) if q == 1 else tree_alphabet(q)
    for d in range(4):
        pts = sphere(ab, d)
        assert len(pts) == sphere_size(q, d)
        assert all(len(p) == d for p in pts)
        assert len(set(pts)) == len(pts)


def test_ball_is_disjoint_union_of_spheres():
    pts = ball(F2, 3)
    assert len(pts) == sum(sphere_size(3, d) for d in range(4))


def test_sphere_size_closed_form():
    # (q+1) q^(d-1) for d >= 1 on the (q+1)-regular tree
    assert sphere_size(2, 0) == 1
    assert sphere_size(2, 1) == 3
    assert sphere_size(2, 5) == 3 * 2**4
    assert sphere_size(1, 7) == 2


# -- parse / format --------------------------------------------------------


@given(letters_strategy(F2))
def test_parse_format_round_trip(a):
    x = word(F2, a)
    assert parse_word(F2, format_word(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(Exception):
        parse_word(F2, "1,,2")


# -- confluent and ultrametric ----------------------------------------------


def test_confluent_is_common_prefix():
    x = word(F2, [1, 2, 1])
    y = word(F2, [1, 2, -1, 2])
    assert confluent(x, y) == word(F2, [1, 2])


def test_confluent_undefined_on_equal_vertices():
    x = word(F2, [1, 2])
    with pytest.raises(ValueError):
        confluent(x, x)


def test_confluent_needs_deep_enough_prefix():
    xi = EndPrefix.from_pattern(F2, [1], 3)
    # a vertex on the ray but past the materialised prefix is unresolved
    past = word(F2, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        confluent(past, xi)
    # ... while the prefix endpoint itself is on the ray
    assert confluent(word(F2, [1, 1, 1]), xi) == word(F2, [1, 1, 1])
    off = word(F2, [2])
    assert confluent(off, xi) == identity(F2)


def test_ultrametric_values():
    x = word(F2, [1, 2])
    y = word(F2, [1, -2])
    assert ultrametric(x, y) == Fraction(1, 3)  # meet length 1, q = 3
    assert ultrametric(x, x) == 0


def test_ultrametric_strong_triangle_exhaustive_small():
    # exhaustive on the radius-2 ball here; the acceptance suite runs radius 4
    pts = ball(T3, 2)
    for u, v, w in itertools.product(pts, repeat=3):
        assert ultrametric(u, w) <= max(ultrametric(u, v), ultrametric(v, w))


# -- ends ------------------------------------------------------------------


def test_end_prefix_pattern_and_truncate():
    xi = EndPrefix.from_pattern(F2, [1, 2], 7)
    assert xi.depth == 7
    assert xi.word.letters == (1, 2, 1, 2, 1, 2, 1)
    assert xi.truncate(3).word.letters == (1, 2, 1)


def test_end_prefix_rejects_unreduced_pattern():
    with pytest.raises(Exception):
        EndPrefix.from_pattern(F2, [1, -1], 4)


def test_end_prefix_translate_moves_base_point():
    # g * xi.word is a prefix of the end g xi, at most |g| letters shorter
    xi = EndPrefix.from_pattern(F2, [1], 6)
    for letters, moved in [([2], (2, 1, 1, 1, 1, 1, 1)), ([-1], (1,) * 5),
                           ([2, -1, -1], (2, 1, 1, 1, 1))]:
        w = word(F2, letters) * xi.word
        assert w.letters == moved and len(w) >= xi.depth - len(letters)


def test_horocycle_on_and_off_ray():
    xi = EndPrefix.from_pattern(F2, [1], 12)
    assert horocycle(identity(F2), xi) == 0
    assert horocycle(word(F2, [1, 1]), xi) == -2  # two steps toward the end
    assert horocycle(word(F2, [2]), xi) == 1  # one step away


def test_horocycle_stable_in_ray_depth():
    xi = EndPrefix.from_pattern(F2, [1, 2], 16)
    x = word(F2, [2, -1])
    vals = {horocycle(x, xi, depth=d) for d in range(6, 17)}
    assert len(vals) == 1


def test_horocycle_needs_resolving_depth():
    xi = EndPrefix.from_pattern(F2, [1], 2)
    with pytest.raises(ValueError):
        horocycle(word(F2, [1, 1, 1]), xi)
