"""Crossed modules, quadratic modules, pairings, groupoids, and their
homotopy groups."""

import pytest
from hypothesis import given, settings, strategies as st

from secgroups.words import PointedSet, Word
from secgroups.abelian import FinAbGroup, AbMap, identity_map
from secgroups import intlinalg as la
from secgroups.nil2 import Class2Group, Class2Hom, free_nil, identity_hom
from secgroups.crossed import (
    FreeGroupBase, WordHom, AbCoords, GroupAction, OmegaPairing,
    PointedGroupoid, CrossedModule, ReducedQuadraticModule,
    StableQuadraticModule, CrossMorphism, check_axioms, H0Undecidable,
    quadratic_module,
)
from secgroups.functors import ad2
from secgroups.models import abelian_as_class2, wedge_model
from secgroups.selftest import (
    _conjugation_module, _finite_rqm, cyclic_groupoid, klein_groupoid,
    discrete_groupoid,
)


def test_conjugation_crossed_module_axioms():
    cm = _conjugation_module(PointedSet(["a", "b"]))
    assert check_axioms(cm) == []


def test_crossed_module_action_is_conjugation():
    cm = _conjugation_module(PointedSet(["a", "b"]))
    g = cm.m
    x, n = g.generator(0), g.generator(1)
    assert cm.act(x, n) == x.conjugate_by(n)


def test_crossed_module_h1_is_center_of_kernel():
    # identity boundary: h1 is trivial, h0 is trivial
    cm = _conjugation_module(PointedSet(["a", "b"]))
    assert cm.h1().is_trivial()


def test_word_hom_validation():
    points = PointedSet(["a", "b"])
    g = free_nil(points)
    base = FreeGroupBase(points)
    from secgroups.words import commutator_word
    u, v = Word.parse("a"), Word.parse("b a")
    f = WordHom(g, base, [u, v], [commutator_word(u, v)])
    f.validate()
    x = g.generator(0) * g.generator(1)
    assert f.eval(x) == Word.parse("a b a")


def test_ab_coords_free_mode():
    g = free_nil(PointedSet(["a", "b"]))
    coords = AbCoords(g)
    x = g.generator(0) ** 2 * g.generator(1) ** -1
    vec = coords.of(x)
    assert vec[:2] == [2, -1]


def test_omega_pairing_bilinear():
    rqm = _finite_rqm(8, 4, 2)
    om = rqm.omega
    for a in range(4):
        for b in range(4):
            assert om.pair([a + 1], [b]) * om.pair([1], [b]) == \
                om.pair([a + 2], [b])
            assert om.pair([a], [b + 1]) * om.pair([a], [1]) == \
                om.pair([a], [b + 2])
    # concrete values: omega(u, v) = 2uv in Z/8
    assert om.pair([1], [1]) == rqm.m.element([2], [])
    assert om.pair([3], [1]) == rqm.m.element([6], [])


def _all_pairs_validate(om: OmegaPairing):
    """The former `OmegaPairing.validate`: every ordered pair of images
    multiplied both ways, then the tensor-square relations."""
    for x in om.images:
        for y in om.images:
            if not (x * y == y * x):
                raise ValueError("omega images do not commute")
    for rel in om.ts.group.relations:
        if not om.eval_vec(rel).is_identity():
            raise ValueError("omega not defined modulo relations")


def _error(check):
    try:
        check()
    except ValueError as e:
        return str(e)
    return None


_SMALL = st.sampled_from([0, 0, 0, 1, -1, 2])


def _vectors(n, entry=_SMALL):
    return st.lists(entry, min_size=n, max_size=n)


def _matrix(draw, rows, cols, entry=_SMALL):
    return [draw(_vectors(cols, entry)) for _ in range(rows)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_omega_validate_matches_all_pairs_oracle(data):
    """Random M = Class2Group(check=False), nq 0-4, nc 0-3, small beta and
    in some cases lam != beta - beta o swap; N_ab with 0-2 generators."""
    draw = data.draw
    nq, nc = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    na = draw(st.sampled_from([0, 1, 2, 2]))
    q = FinAbGroup(nq, _matrix(draw, draw(st.integers(0, 2)), nq,
                               st.integers(-4, 4)))
    c = FinAbGroup(nc, _matrix(draw, draw(st.integers(0, 2)), nc,
                               st.integers(-4, 4)))
    beta = _matrix(draw, nc, nq * nq)
    lam = beta if draw(st.booleans()) else [
        [row[i * nq + j] - row[j * nq + i]
         for i in range(nq) for j in range(nq)] for row in beta]
    m = Class2Group(q, c, lam, beta, check=False)
    n_ab = FinAbGroup(na, _matrix(draw, draw(st.integers(0, 2)), na,
                                  st.integers(-4, 4)))
    images = [m.element(draw(_vectors(nq, st.integers(-2, 2))),
                        draw(_vectors(nc)))
              for _ in range(na * na)]
    om = OmegaPairing(AbCoords(abelian_as_class2(n_ab)), m, images,
                      check=False)
    assert _error(om.validate) == _error(lambda: _all_pairs_validate(om))


def test_reduced_quadratic_module_axioms():
    rqm = _finite_rqm(8, 4, 2)
    assert check_axioms(rqm) == []
    assert rqm.h1().order() == 8  # trivial boundary: everything is a cycle
    assert rqm.h0().order() == 4


def test_stable_quadratic_module_needs_symmetry():
    sq = _finite_rqm(2, 2, 1, level=3)
    assert check_axioms(sq) == []


def test_quadratic_module_picks_the_class_from_the_level():
    x = _finite_rqm(2, 2, 1)
    parts = (x.m, x.n, x.bnd, x.omega)
    assert type(quadratic_module(*parts, 2)) is ReducedQuadraticModule
    for n in (3, 4):
        y = quadratic_module(*parts, n)
        assert type(y) is StableQuadraticModule and y.level == n
    for n in (0, 1):
        with pytest.raises(ValueError):
            quadratic_module(*parts, n)
    with pytest.raises(ValueError):
        StableQuadraticModule(*parts, level=2)


def test_wedge_model_axioms():
    for n in (2, 3):
        x = wedge_model(n, PointedSet(["a", "b"]))
        assert check_axioms(x) == []


def test_cross_morphism_identity_and_weak_equivalence():
    x = wedge_model(2, PointedSet(["a", "b"]))
    f = CrossMorphism(x, x, identity_hom(x.m), identity_hom(x.n))
    f.validate()
    assert f.is_weak_equivalence()


def test_induced_h1_refuses_a_free_base():
    _, unit = ad2(wedge_model(1, PointedSet(["*", "a"])))
    with pytest.raises(NotImplementedError, match="free base"):
        unit.induced_h1()
    with pytest.raises(NotImplementedError, match="free base"):
        unit.is_weak_equivalence()


def test_groupoid_check_and_h0_h1():
    g = cyclic_groupoid(4)
    assert g.check() == []
    assert g.h1().order() == 4
    assert g.h1().abelianization().invariant_factors == (4,)
    assert len(g.h0().nonbase()) == 0

    k = klein_groupoid()
    assert k.h1().abelianization().invariant_factors == (2, 2)

    d = discrete_groupoid(["p", "q"])
    assert len(d.h0().nonbase()) == 2
    assert d.h1().order() == 1


def test_h0_undecidable_on_free_base():
    points = PointedSet(["a", "b"])
    base = FreeGroupBase(points)
    m = abelian_as_class2(FinAbGroup(0), [])
    bnd = WordHom(m, base, [])
    cm = CrossedModule(m, base, bnd, GroupAction.trivial(base, m))
    with pytest.raises(H0Undecidable):
        cm.h0_order(cap=100)


def test_h0_order_finite_on_free_base():
    # Z --(x -> a^5)--> F(a) presents Z/5
    points = PointedSet(["a"])
    base = FreeGroupBase(points)
    m = abelian_as_class2(FinAbGroup(1), ["x0"])
    bnd = WordHom(m, base, [Word.parse("a^5")])
    cm = CrossedModule(m, base, bnd, GroupAction.trivial(base, m))
    assert cm.h0_order(cap=100) == 5
