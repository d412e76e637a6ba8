"""Free-group words and pointed sets."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from secgroups.words import PointedSet, Word, commutator_word, BASEPOINT


def test_pointed_set_always_has_basepoint():
    p = PointedSet(["a", "b"])
    assert BASEPOINT in p
    assert p.nonbase() == ["a", "b"]
    assert len(p) == 3


def test_pointed_set_rejects_duplicates():
    with pytest.raises(ValueError):
        PointedSet(["a", "a"])


def test_parse_and_str_round_trip():
    for text in ["a b^-1 a^2", "1", "a^3", "b^-2 a b^2"]:
        w = Word.parse(text)
        assert Word.parse(str(w)) == w


def test_reduction_cancels_adjacent_inverses():
    w = Word.parse("a b b^-1 a^-1 c")
    assert w.reduced() == Word.parse("c")
    assert Word.parse("a a^-1").is_trivial()


def test_multiplication_and_inverse():
    u = Word.parse("a b")
    v = Word.parse("b^-1 c")
    assert u * v == Word.parse("a c")
    assert (u * u.inverse()).is_trivial()
    assert u.inverse() == Word.parse("b^-1 a^-1")


def test_powers():
    u = Word.parse("a b")
    assert u ** 0 == Word()
    assert u ** 2 == Word.parse("a b a b")
    assert u ** -1 == u.inverse()


def _power_by_products(w, k):
    """The former definition of `Word.__pow__`: k products, each reduced."""
    if k < 0:
        return _power_by_products(w.inverse(), -k)
    out = Word()
    for _ in range(k):
        out = out * w
    return out


@given(letters=st.lists(st.tuples(st.sampled_from("abc"),
                                  st.integers(-2, 2)), max_size=6),
       k=st.integers(-5, 6))
@settings(max_examples=300, deadline=None)
def test_power_matches_repeated_products(letters, k):
    w = Word(letters)
    assert (w ** k).letters == _power_by_products(w, k).letters


def test_large_power_is_one_reduction():
    start = time.perf_counter()
    w = Word.parse("a b") ** 4000
    assert time.perf_counter() - start < 1.0
    assert w.letters == [("a", 1), ("b", 1)] * 4000


def test_exponent_sums():
    w = Word.parse("a b^-1 a^2 c b")
    assert w.exponent_sums(["a", "b", "c"]) == [3, 0, 1]


def test_commutator_word():
    u, v = Word.parse("a"), Word.parse("b")
    assert commutator_word(u, v) == Word.parse("a^-1 b^-1 a b")
    assert commutator_word(u, u).is_trivial()


def test_hash_consistent_with_equality():
    assert hash(Word.parse("a b b^-1")) == hash(Word.parse("a"))
