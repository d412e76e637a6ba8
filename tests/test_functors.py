"""Level-changing functors: fibers, the six-term sequence, the phi/ad towers,
free objects on groupoids, and the adjunction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from secgroups.words import PointedSet, Word
from secgroups.abelian import AbMap, identity_map
from secgroups.nil2 import (Class2Hom, free_nil, hom_from_words, identity_hom,
                            nilize)
from secgroups.crossed import (AbCoords, CrossedModule, CrossMorphism,
                               FreeBaseHom, FreeGroupBase, GroupAction,
                               check_axioms)
from secgroups.models import wedge_model
from secgroups.functors import (
    fiber, six_term, phi1, phi2, phi3, ad1, ad2, ad3,
    adjunction_check, enumerate_morphisms, morphisms_equal,
)
from secgroups.selftest import (
    _induced_wedge_morphism, _random_quotient_wedge, _points,
    _finite_rqm, discrete_groupoid, cyclic_groupoid, klein_groupoid,
    two_object_connected_groupoid, ad2_free_instance,
)


def test_fiber_of_identity_is_acyclic():
    x = wedge_model(2, PointedSet(["a", "b"]))
    f = CrossMorphism(x, x, identity_hom(x.m), identity_hom(x.n))
    fib = fiber(f)
    assert fib.obj.check_axioms() == []
    assert fib.obj.h1().is_trivial()


def test_six_term_on_random_morphisms():
    rng = random.Random(7)
    for _ in range(10):
        x = wedge_model(2, _points(rng.randint(1, 2)))
        y = _random_quotient_wedge(rng, 2, _points(rng.randint(1, 2)))
        f = _induced_wedge_morphism(rng, x, y)
        rep = six_term(f)
        assert rep["exact"], {k: v for k, v in rep.items()
                              if isinstance(v, bool)}


def _crit5_morphism(seed):
    """A random level-2 morphism drawn as the fiber criterion draws them."""
    rng = random.Random(seed)
    x = wedge_model(2, _points(rng.randint(1, 2)))
    y = _random_quotient_wedge(rng, 2, _points(rng.randint(1, 2)))
    return _induced_wedge_morphism(rng, x, y)


def _raw_map(f):
    """Matrices of an AbMap, or generator images and central matrix of a
    Class2Hom, with the relations of its groups, as plain lists."""
    if isinstance(f, AbMap):
        return f.matrix, f.source.relations, f.target.relations
    groups = [(g.q.relations, g.c.relations) for g in (f.source, f.target)]
    return ([(e.qvec, e.cvec) for e in f.gen_images], f.cmap.matrix, groups)


def test_six_term_after_fiber_matches_six_term_alone():
    """The fiber, kernels and cokernels held by fiber() and reused by
    six_term give the report and maps a fresh six_term gives."""
    for seed in range(30):
        held, fresh = _crit5_morphism(seed), _crit5_morphism(seed)
        fib = fiber(held)
        assert fiber(held) is fib
        rep_held, rep_fresh = six_term(held), six_term(fresh)
        assert rep_held["fiber"] is fib
        assert rep_fresh["fiber"] is fiber(fresh)
        assert {k: v for k, v in rep_held.items() if isinstance(v, bool)} \
            == {k: v for k, v in rep_fresh.items() if isinstance(v, bool)}
        for a, b in zip(rep_held["maps"], rep_fresh["maps"]):
            assert _raw_map(a) == _raw_map(b)


def test_fiber_rejects_level1():
    w = wedge_model(1, PointedSet(["a"]))
    f = CrossMorphism(w, w, identity_hom(w.m), None, check=False)
    with pytest.raises(NotImplementedError):
        fiber(f)


def test_phi_tower_preserves_homotopy_groups():
    sq = _finite_rqm(2, 2, 1, level=3)
    rq = phi3(sq)
    assert check_axioms(rq) == []
    assert rq.h1().is_isomorphic_to(sq.h1())
    cm = phi2(rq)
    assert check_axioms(cm) == []
    assert cm.h1().is_isomorphic_to(rq.h1())


def test_phi1_groupoid():
    cm = phi2(_finite_rqm(4, 2, 1))
    gpd = phi1(cm).to_pointed_groupoid()
    assert gpd.check() == []


def test_ad2_on_circle_wedge_gives_sphere_model():
    m = ad2_free_instance()
    assert m.is_weak_equivalence()


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="recorded defect: ad2 raises 'hom disagrees on relation "
           "representatives' on a crossed module whose M has a central "
           "layer, while building the boundary of the nilized module")
def test_ad2_on_the_conjugation_module_of_two_letters():
    """M = N = the free class-2 group on a, b, the identity boundary and
    the action by conjugation: a valid crossed module, whose nilization
    must be a valid reduced quadratic module."""
    g = free_nil(PointedSet(["*", "a", "b"]))
    autos = [Class2Hom(g, g, [g.generator(j).conjugate_by(g.generator(i))
                              for j in range(g.q.ngens)],
                       identity_map(g.c), check=False)
             for i in range(g.q.ngens)]
    cm = CrossedModule(g, g, identity_hom(g),
                       GroupAction(g, g, autos, check=False))
    assert check_axioms(cm) == []
    rqm, _ = ad2(cm)
    assert check_axioms(rqm) == []


def test_ad3_stabilization_h1():
    w2 = wedge_model(2, PointedSet(["a"]))
    stab, unit = ad3(w2)
    assert check_axioms(stab) == []
    # h1 Z (level 2) stabilizes to Z/2
    assert stab.h1().invariant_factors == (2,)


@pytest.mark.parametrize("build,h1_order,h0_classes", [
    (lambda: discrete_groupoid(["p", "q"]), 1, 2),
    (lambda: cyclic_groupoid(3), 3, 0),
    (lambda: klein_groupoid(), 4, 0),
    (lambda: two_object_connected_groupoid(), 1, 0),
])
def test_ad1_closed_forms(build, h1_order, h0_classes):
    pcm = ad1(build())
    h1 = pcm.h1_certificate()
    assert h1 is not None and h1.order() == h1_order
    assert len(pcm.h0_certificate().points.nonbase()) == h0_classes


def test_enumerate_morphisms_identity_present():
    y = _finite_rqm(2, 2, 1)
    homs = enumerate_morphisms(y, y)
    idm = CrossMorphism(y, y, identity_hom(y.m), identity_hom(y.n),
                        check=False)
    assert any(morphisms_equal(h, idm) for h in homs)


@pytest.mark.parametrize("n", [2, 3])
def test_adjunction_bijection(n):
    if n == 2:
        x = wedge_model(1, PointedSet(["a"]))
        y = _finite_rqm(2, 2, 1)
    else:
        x = wedge_model(2, PointedSet(["a"]))
        y = _finite_rqm(2, 2, 1, level=3)
    rep = adjunction_check(n, x, y)
    assert rep["counts_equal"] and rep["bijection"], rep


# ---------------------------------------------------------------------------
# the word-fed map out of a free base
# ---------------------------------------------------------------------------

LETTERS = "abc"


def _words(k, max_len=8):
    letters = st.tuples(st.sampled_from(LETTERS[:k]), st.sampled_from([-1, 1]))
    return st.lists(letters, max_size=max_len).map(Word)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_word_fed_map_matches_nilize_and_chained_evaluation(data):
    k = data.draw(st.integers(1, 3), label="letters")
    points = PointedSet(list(LETTERS[:k]))
    base = FreeGroupBase(points)
    g = free_nil(points)
    to_nil = FreeBaseHom(base, g, [g.generator(i) for i in range(k)])
    w = data.draw(_words(k), label="word")
    assert to_nil.eval(w) == nilize(w, free_nil(points))
    nil_group, nilization = base.nilization()
    assert nilization.eval(w) == nilize(w, nil_group)
    # a class-2 hom after the map is again a word-fed map, evaluated as the
    # hom applied to the map's value
    k2 = data.draw(st.integers(1, 3), label="target letters")
    h = free_nil(PointedSet(list(LETTERS[:k2])))
    outer = hom_from_words(g, h, {s: data.draw(_words(k2, 4), label=s)
                                  for s in g.gen_names})
    composed = outer.compose(to_nil)
    assert isinstance(composed, FreeBaseHom)
    assert composed.eval(w) == outer.eval(to_nil.eval(w))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ab_coords_agree_over_free_base_and_free_nil(data):
    k = data.draw(st.integers(1, 3), label="letters")
    points = PointedSet(list(LETTERS[:k]))
    g = free_nil(points)
    free, nil = AbCoords(FreeGroupBase(points)), AbCoords(g)
    u = data.draw(_words(k), label="word")
    v = Word(data.draw(st.permutations(u.letters), label="shuffled"))
    want = free.of(u)
    assert free.of(v) == want
    assert nil.of(nilize(u, g)) == want
    assert nil.of(nilize(v, g)) == want
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    assert [free.of(b) for b in free.basis] == units
    assert [nil.of(b) for b in nil.basis] == units
