"""Coset enumeration for finitely presented groups."""

import random

import pytest

from secgroups.words import Word
from secgroups.coset import (
    DEFAULT_CAP, FinitelyPresentedGroup, EnumerationCapExceeded,
    _word_to_ints, todd_coxeter,
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


def test_relator_letter_outside_the_generators_is_a_value_error():
    for rels in (["a^2", "b"], ["a b a^-1"]):
        with pytest.raises(ValueError, match="'b' is not a generator"):
            _fp(["a"], rels)
    # a letter that cancels away leaves no relator to misread
    assert _fp(["a"], ["a^3", "b b^-1"]).order() == 3


def test_duplicate_generator_is_a_value_error():
    with pytest.raises(ValueError, match="duplicate generator 'a'"):
        _fp(["a", "b", "a"], ["a^2"])


def _todd_coxeter_oracle(group, cap):
    """The enumeration as it was written before it became one loop: closures
    for find, merge, set_entry and define, and sweeps repeated until one
    defines nothing.  Returns (order, number of cosets defined)."""
    gens = group.generators
    index = {g: i for i, g in enumerate(gens)}
    width = 2 * len(gens)
    relator_ints = [_word_to_ints(r, index) for r in group.relators
                    if r.letters]
    table = [[None] * width]
    reps = [0]

    def find(c):
        while reps[c] != c:
            reps[c] = reps[reps[c]]
            c = reps[c]
        return c

    pending = []

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        reps[b] = a
        for col in range(width):
            v = table[b][col]
            if v is not None:
                pending.append((b, col, v))

    def set_entry(c, col, d):
        c, d = find(c), find(d)
        inv = col ^ 1
        cur = table[c][col]
        if cur is not None and find(cur) != d:
            merge(find(cur), d)
            return
        table[c][col] = d
        cur2 = table[d][inv]
        if cur2 is not None and find(cur2) != c:
            merge(find(cur2), c)
        else:
            table[d][inv] = c

    def define(c, col):
        if len(table) >= cap:
            raise EnumerationCapExceeded("coset cap %d exceeded" % cap)
        table.append([None] * width)
        reps.append(len(table) - 1)
        d = len(table) - 1
        set_entry(c, col, d)
        return d

    def scan(c, word):
        f = c
        for step in word:
            f = find(f)
            nxt = table[f][step]
            if nxt is None:
                nxt = define(f, step)
            f = find(nxt)
        merge(f, c)

    changed = True
    while changed:
        changed = False
        c = 0
        while c < len(table):
            if find(c) == c:
                for word in relator_ints:
                    scan(c, word)
                    while pending:
                        b, col, v = pending.pop()
                        set_entry(find(b), col, find(v))
                for col in range(width):
                    if table[c][col] is None:
                        define(c, col)
                        changed = True
                    while pending:
                        b, col2, v = pending.pop()
                        set_entry(find(b), col2, find(v))
            c += 1
    live = {find(c) for c in range(len(table))}
    return len(live), len(table)


def _random_presentation(rng):
    """1-3 generators; a power relator per generator in about half; up to
    three random relators of length 1-9."""
    gens = ["a", "b", "c"][:rng.randint(1, 3)]
    rels = []
    if rng.random() < 0.5:
        rels += [Word([(g, rng.randint(2, 6))]) for g in gens]
    for _ in range(rng.randint(0, 3)):
        rels.append(Word([(rng.choice(gens), rng.choice((1, -1)))
                          for _ in range(rng.randint(1, 9))]))
    return FinitelyPresentedGroup(gens, rels)


def _benchmark_presentation(rng):
    """<a, b | a^p, b^q, w>, p, q in 2..6, |w| in 2..8."""
    w = [(rng.choice("ab"), rng.choice((1, -1)))
         for _ in range(rng.randint(2, 8))]
    return FinitelyPresentedGroup(
        ["a", "b"], [Word([("a", rng.randint(2, 6))]),
                     Word([("b", rng.randint(2, 6))]), Word(w)])


def _assert_defines_as_oracle(group, cap):
    """Below `cap` the oracle's answer and its count n of cosets defined
    pin the enumeration: order at cap n, refusal at cap n - 1."""
    try:
        order, n = _todd_coxeter_oracle(group, cap)
    except EnumerationCapExceeded:
        with pytest.raises(EnumerationCapExceeded):
            todd_coxeter(group, cap=cap)
        return False
    assert todd_coxeter(group, cap=n) == order, group
    with pytest.raises(EnumerationCapExceeded):
        todd_coxeter(group, cap=n - 1)
    return True


def test_enumeration_defines_the_cosets_the_oracle_defines():
    rng = random.Random(20062)
    answered = 0
    for _ in range(400):
        answered += _assert_defines_as_oracle(_random_presentation(rng), 1500)
    for _ in range(60):
        answered += _assert_defines_as_oracle(_benchmark_presentation(rng),
                                              DEFAULT_CAP)
    assert answered > 200
