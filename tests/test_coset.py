"""Coset enumeration for finitely presented groups."""

import random

import pytest

from secgroups.words import Word
from secgroups.coset import (
    FinitelyPresentedGroup, EnumerationCapExceeded, todd_coxeter,
)


def _fp(gens, rels):
    return FinitelyPresentedGroup(gens, [Word.parse(r) for r in rels])


def test_trivial_and_cyclic():
    assert _fp([], []).order() == 1
    assert _fp(["a"], ["a^7"]).order() == 7
    assert _fp(["a"], ["a"]).order() == 1


def test_dihedral_of_order_8():
    g = _fp(["r", "s"], ["r^4", "s^2", "s^-1 r s r"])
    assert g.order() == 8


def test_symmetric_group_s3():
    g = _fp(["a", "b"], ["a^2", "b^3", "a b a b"])
    assert g.order() == 6


def test_icosahedral_presentation_order_60():
    g = _fp(["a", "b"], ["a^5", "b^3", "a b a b"])
    assert g.order() == 60


def test_quaternion_group():
    g = _fp(["i", "j"], ["i^4", "i^2 j^-2", "j^-1 i j i"])
    assert g.order() == 8


def test_free_group_exceeds_cap():
    g = _fp(["a", "b"], [])
    with pytest.raises(EnumerationCapExceeded):
        g.order(cap=200)


def test_cap_respected_but_sufficient():
    g = _fp(["a"], ["a^5"])
    assert todd_coxeter(g, cap=50) == 5


def test_abelianization():
    g = _fp(["a", "b"], ["a^2", "b^3", "a^-1 b^-1 a b"])
    ab = g.abelianization()
    assert ab.invariant_factors == (6,)
    assert ab.order() == 6


def test_orders_of_random_two_generator_presentations_match_sympy():
    """<a, b | a^p, b^q, w> for p, q in 2..6 and |w| in 2..8: every order
    the bounded enumeration answers is the order sympy enumerates."""
    pytest.importorskip("sympy")
    from sympy.combinatorics.coset_table import coset_enumeration_r
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    class Presentation(FpGroup):
        """FpGroup without the rewriting system its constructor builds;
        coset enumeration does not use it."""

        def __init__(self, fr_grp, relators):
            self.free_group = fr_grp
            self.relators = list(relators)
            self.generators = fr_grp.generators

    f, a, b = free_group("a b")
    rng = random.Random(20061)
    answered = 0
    for _ in range(252):
        p, q = rng.randint(2, 6), rng.randint(2, 6)
        w = [(rng.choice("ab"), rng.choice((1, -1)))
             for _ in range(rng.randint(2, 8))]
        try:
            order = FinitelyPresentedGroup(
                ["a", "b"], [Word([("a", p)]), Word([("b", q)]), Word(w)]
            ).order()
        except EnumerationCapExceeded:
            continue
        answered += 1
        rel = f.identity
        for s, e in w:
            rel = rel * ({"a": a, "b": b}[s] ** e)
        table = coset_enumeration_r(Presentation(f, [a ** p, b ** q, rel]),
                                    [], max_cosets=100_000)
        table.compress()
        assert order == len(table.table), (p, q, w)
    assert answered > 0
