"""Level-changing functors: fibers, the six-term sequence, the phi/ad towers,
free objects on groupoids, and the adjunction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from secgroups import intlinalg as la
from secgroups.words import PointedSet, Word
from secgroups.abelian import (AbMap, FinAbGroup, exact, identity_map,
                               zero_map)
from secgroups import functors
from secgroups.nil2 import (Class2Group, Class2Hom, Subgroup,
                            abelian_as_class2, free_nil, hom_cokernel,
                            hom_from_values, hom_from_words, hom_kernel,
                            identity_hom, nilize, trivial_hom)
from secgroups.crossed import (AbCoords, CrossedModule, CrossMorphism,
                               FreeBaseHom, FreeGroupBase, GroupAction,
                               PointedGroupoid, check_axioms)
from secgroups.models import k_invariant, wedge_model
from secgroups.functors import (
    fiber, six_term, phi1, phi2, phi3, ad1, ad2, ad3,
    adjunction_check, enumerate_morphisms, morphisms_equal, _exact_at,
)
from secgroups.selftest import (
    _induced_wedge_morphism, _random_quotient_wedge, _points,
    _finite_rqm, discrete_groupoid, cyclic_groupoid, klein_groupoid,
    two_object_connected_groupoid, ad2_free_instance,
)

from lattices import lattices_equal


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


def _well_defined(m: AbMap):
    """The check an `AbMap` built unchecked skipped: every source relation
    lands in the target's relation lattice."""
    AbMap(m.source, m.target, m.matrix)


def test_fiber_parts_connecting_map_and_induced_maps_pass_their_checks(
        monkeypatch):
    """`fiber`, `six_term` and the induced maps build their homs, pairing
    and morphisms unchecked, from valid inputs; on crit-5 morphisms each
    passes the check its constructor skipped, and the fiber its axioms.
    The combined map is read off `fiber`'s call to `hom_kernel`."""
    kerneled = []

    def recording(h):
        kerneled.append(h)
        return hom_kernel(h)

    monkeypatch.setattr(functors, "hom_kernel", recording)
    for seed in range(12):
        f = _crit5_morphism(seed)
        f.validate()
        del kerneled[:]
        fib = fiber(f)
        (combined,) = kerneled
        for h in (combined, fib.zero_incl, fib.obj.bnd, fib.incl.f0):
            h.validate()
        fib.obj.omega.validate()
        fib.incl.validate()
        assert fib.obj.check_axioms() == []
        rep = six_term(f)
        m1, m2, delta, m4, m5 = rep["maps"]
        h0_fib, p_fib = hom_cokernel(fib.obj.bnd)
        for g in (fib.obj.n, h0_fib):
            g._validate()
        for h in (delta, m4, m5, p_fib):
            h.validate()
        for m in (m1, m2):
            _well_defined(m)


def _former_exact_at_h1y(m2: AbMap, delta: Class2Hom) -> bool:
    """The former h1 y block of six_term: the image of m2 and the kernel
    of delta, both as lattices of h1 y, are equal."""
    h1y = m2.target
    dk, dki = hom_kernel(delta)
    ker_rows = [dki.eval(g).qvec for g in dk.generators()]
    im_rows = la.transpose(m2.matrix, m2.source.ngens) + h1y.relations
    ker_lat = la.row_basis(ker_rows + h1y.relations, h1y.ngens)
    return lattices_equal(la.row_basis(im_rows, h1y.ngens), ker_lat,
                             h1y.ngens)


def _former_exact_at_h0(f_in: Class2Hom, g: Class2Hom) -> bool:
    """The former h0 Fib and h0 x blocks of six_term: f_in's values on
    the generators die under g, and g's kernel generators lie in the
    subgroup they generate; both sides are always evaluated."""
    imgs = [f_in.eval(x) for x in f_in.source.generators()]
    im = Subgroup(g.source, imgs)
    k, ki = hom_kernel(g)
    fwd = all(g.eval(x).is_identity() for x in imgs)
    bwd = all(im.contains(ki.eval(x)) for x in k.generators())
    return fwd and bwd


def test_six_term_spots_match_their_former_bodies():
    """On crit-5 morphisms (every spot exact) and on non-exact pairs built
    from their maps: a zero outgoing map, and an incoming map that is zero
    or the identity, so its image misses the kernel or does not die.

    Mutations of `_exact_at` this catches: dropping the forward
    check (the identity into a nonzero map reads exact) and skipping the
    first kernel generator (a zero incoming map reads exact)."""
    seen = set()
    for seed in range(12):
        rep = six_term(_crit5_morphism(seed))
        m1, m2, delta, m4, m5 = rep["maps"]
        assert rep["exact_at_h1x"] == exact(m1, m2)
        assert rep["exact_at_h1y"] == _former_exact_at_h1y(m2, delta)
        assert rep["exact_at_h0fib"] == _former_exact_at_h0(delta, m4)
        assert rep["exact_at_h0x"] == _former_exact_at_h0(m4, m5)
        h1y, h0fib = m2.target, m4.source
        killed = trivial_hom(delta.source, delta.target)
        for f_in, g in ((m2, killed),
                        (zero_map(m2.source, h1y), delta),
                        (AbMap(h1y, h1y, la.identity(h1y.ngens)), delta)):
            got = _exact_at([g.source.element(col) for col in
                             la.transpose(f_in.matrix, f_in.source.ngens)], g)
            assert got == _former_exact_at_h1y(f_in, g)
            seen.add(got)
        for f_in, g in ((delta, trivial_hom(h0fib, m4.target)),
                        (trivial_hom(delta.source, h0fib), m4),
                        (identity_hom(h0fib), m4),
                        (trivial_hom(m4.source, m5.source), m5),
                        (identity_hom(m5.source), m5)):
            got = _exact_at([f_in.eval(x) for x in f_in.source.generators()],
                            g)
            assert got == _former_exact_at_h0(f_in, g)
            seen.add(got)
    assert seen == {True, False}


def test_exact_at_answers_where_the_kernel_group_is_refused():
    """The trivial hom of Z/4-by-Z/4 with beta(e, e) = 1 has all of g as
    kernel, which `hom_kernel` refuses (a diagonal cocycle term); exactness
    reads its kernel generators instead."""
    g = Class2Group(FinAbGroup(1, [[4]]), FinAbGroup(1, [[4]]), [[1]])
    zero = trivial_hom(g, g)
    assert _exact_at(list(g.generators()), zero)
    assert not _exact_at([], zero)


def _former_morphism_validate(mor: CrossMorphism):
    """The former `CrossMorphism.validate` at level two and up: each
    generator of M and each pair (i, j) evaluated, the omega square's
    right side on the Kronecker vector.  Its boundary message names the
    generator, as the new one does; before, it named none."""
    s, t = mor.src, mor.tgt
    for k, g in enumerate(s.m.generators()):
        if not t.bnd.eval(mor.f1.eval(g)) == mor.f0.eval(s.bnd.eval(g)):
            raise ValueError("boundary square does not commute at M "
                             "generator %d" % k)
    na, nt = s.coords.group.ngens, t.coords.group.ngens
    f0_ab = la.transpose([t.coords.of(mor.f0.eval(b))
                          for b in s.coords.basis], nt)
    for i in range(na):
        for j in range(na):
            vec = [0] * (na * na)
            vec[i * na + j] = 1
            lhs = mor.f1.eval(s.omega.eval_vec(vec))
            a = [f0_ab[r][i] for r in range(nt)]
            b = [f0_ab[r][j] for r in range(nt)]
            if not lhs == t.omega.eval_vec(la.kron(a, b)):
                raise ValueError("morphism breaks omega at (%d,%d)" % (i, j))


def _error(check):
    try:
        check()
    except ValueError as e:
        return str(e)
    return None


def _perturbed(rng, f: Class2Hom) -> Class2Hom:
    """f with one generator image times a random generator of the target,
    or set to the identity; unchecked."""
    t = f.target
    images = list(f.gen_images)
    if images:
        i = rng.randrange(len(images))
        gens = t.generators()
        images[i] = (t.identity() if not gens or rng.random() < 0.25
                     else images[i] * rng.choice(gens))
    return Class2Hom(f.source, t, images, f.cmap, check=False)


def test_morphism_validate_matches_its_former_body():
    """On crit-5 morphisms and their fiber inclusions (valid), and on
    copies with one f1 or f0 generator image perturbed, the first error
    is the former body's, or there is none in both.  The fiber inclusions
    have zero omega images, so the skipped pairs are reached.

    Mutations this catches: skipping a pair whose image is nonzero (a
    perturbed f0 then passes), and skipping a pair on a zero image alone
    (a perturbed f0 on a fiber inclusion then passes)."""
    rng = random.Random(5)
    seen = set()
    for seed in range(30):
        f = _crit5_morphism(seed)
        for mor in (f, fiber(f).incl):
            assert _error(mor.validate) is None
            assert _former_morphism_validate(mor) is None
            for _ in range(4):
                f1, f0 = mor.f1, mor.f0
                if rng.random() < 0.5:
                    f1 = _perturbed(rng, f1)
                else:
                    f0 = _perturbed(rng, f0)
                bad = CrossMorphism(mor.src, mor.tgt, f1, f0, check=False)
                got = _error(bad.validate)
                assert got == _error(lambda: _former_morphism_validate(bad))
                seen.add(got and got.split(" at ")[0])
    assert seen == {None, "boundary square does not commute",
                    "morphism breaks omega"}


def test_a_broken_morphism_names_its_generator():
    """The identity of the level-2 wedge on a, b with M generator 1,
    e_a (x) e_b, sent to 1: its boundary [a, b] is missed there, while
    generator 0, e_a (x) e_a, has boundary 1."""
    x = wedge_model(2, PointedSet(["a", "b"]))
    images = [x.m.identity() if k == 1 else g
              for k, g in enumerate(identity_hom(x.m).gen_images)]
    f1 = Class2Hom(x.m, x.m, images, identity_map(x.m.c), check=False)
    with pytest.raises(ValueError, match="boundary square does not commute "
                                         "at M generator 1$"):
        CrossMorphism(x, x, f1, identity_hom(x.n))


def test_former_subgroup_coordinate_callers_refuse_outside_elements(
        monkeypatch):
    """Each pullback through an inclusion refuses an element outside the
    subgroup with "element not in subgroup": the fiber's boundary and
    `induced_h1` on morphisms that break the boundary square or miss the
    target's kernel, and the connecting map and the k-invariant, whose
    elements always lie in the kernel, where `preimage` is made to miss."""
    x = wedge_model(2, PointedSet(["a", "b"]))
    broken = CrossMorphism(x, x, trivial_hom(x.m, x.m), identity_hom(x.n),
                           check=False)
    with pytest.raises(ValueError, match="element not in subgroup"):
        fiber(broken)
    # a*a, in the kernel of the boundary, goes to a*b, which is not
    swap = [x.m.generator(p) for p in (1, 0, 2, 3)]
    off_kernel = CrossMorphism(x, x, hom_from_values(x.m, x.m, swap),
                               identity_hom(x.n), check=False)
    with pytest.raises(ValueError, match="element not in subgroup"):
        off_kernel.induced_h1()

    def missing_for(hom):
        real = Class2Hom.preimage
        monkeypatch.setattr(Class2Hom, "preimage", lambda self, y: (
            None if self is hom else real(self, y)))

    f = CrossMorphism(x, x, identity_hom(x.m), identity_hom(x.n))
    missing_for(fiber(f).zero_incl)
    with pytest.raises(ValueError, match="element not in subgroup"):
        six_term(f)
    missing_for(hom_kernel(x.bnd)[1])
    with pytest.raises(ValueError, match="element not in subgroup"):
        k_invariant(x)


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
    gpd = phi1(cm)
    assert gpd.check_axioms() == []


def _former_phi1(x: CrossedModule) -> PointedGroupoid:
    """The former `SemidirectGroupoid.to_pointed_groupoid`: a search over
    every morphism for each composable pair."""
    def target(mor):
        return mor[0] * x.bnd.eval(mor[1])

    objs = list(x.base.elements())
    mors, names, morlist = {}, {}, []
    for i, n in enumerate(objs):
        for m in x.m.elements():
            name = "m%d" % len(morlist)
            ti = next(k for k, o in enumerate(objs) if o == target((n, m)))
            mors[name] = ("o%d" % i, "o%d" % ti)
            names[name] = (n, m)
            morlist.append(name)
    comp = {}
    for g in morlist:
        for f in morlist:
            if mors[f][1] == mors[g][0]:
                res = (names[f][0], names[f][1] * names[g][1])
                for h in morlist:
                    if (mors[h] == (mors[f][0], mors[g][1])
                            and names[h][1] == res[1]
                            and names[h][0] == res[0]):
                        comp[(g, f)] = h
                        break
    obj_names = ["o%d" % i for i in range(len(objs))]
    base_obj = next("o%d" % i for i, o in enumerate(objs) if o.is_identity())
    return PointedGroupoid(obj_names, mors, comp, base=base_obj)


@pytest.mark.parametrize("scale", [0, 1, 2])
@pytest.mark.parametrize("n_order", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m_order", [2, 3, 4, 5, 6])
def test_phi1_matches_its_former_body(m_order, n_order, scale):
    x = phi2(_finite_rqm(m_order, n_order, scale))
    got, want = phi1(x), _former_phi1(x)
    assert got.objects == want.objects
    assert got.base == want.base
    assert got.morphisms == want.morphisms
    assert got.compose_table == want.compose_table
    assert got.check_axioms() == []


def test_phi1_refuses_infinite_objects_and_infinite_m():
    with pytest.raises(ValueError, match="infinite object set"):
        phi1(wedge_model(1, PointedSet(["*", "a"])))
    m = abelian_as_class2(FinAbGroup(1), ["m0"])
    n = abelian_as_class2(FinAbGroup(1, [[2]]), ["n0"])
    bnd = hom_from_values(m, n, [n.generator(0)])
    with pytest.raises(ValueError, match="infinite group"):
        phi1(CrossedModule(m, n, bnd, GroupAction.trivial(n, m)))


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


def test_ad3_unit_and_stable_module_pass_their_checks():
    """ad3 builds its boundary, pairing and unit unchecked from a valid
    module; on wedges and quotient wedges of one to three letters each
    passes its check, and the stable module its axioms."""
    rng = random.Random(26)
    for k in (1, 2, 3):
        for x in (wedge_model(2, _points(k)),
                  _random_quotient_wedge(rng, 2, _points(k))):
            stab, unit = ad3(x)
            for h in (stab.bnd, unit.f1):
                h.validate()
            stab.omega.validate()
            unit.validate()
            assert check_axioms(stab) == []


@pytest.mark.parametrize("build,h1_order,h0_classes", [
    (lambda: discrete_groupoid(["p", "q"]), 1, 2),
    (lambda: cyclic_groupoid(3), 3, 0),
    (lambda: klein_groupoid(), 4, 0),
    (lambda: two_object_connected_groupoid(), 1, 0),
])
def test_ad1_closed_forms(build, h1_order, h0_classes):
    pcm = ad1(build())
    assert pcm.h1_certificate().order() == h1_order
    assert len(pcm.h0_certificate().points.nonbase()) == h0_classes


def test_ad1_h1_refuses_an_infinite_rank_group_ring_factor():
    """Objects * and o, Z/2 at * and only the identity at o: a valid
    groupoid whose h1 has no closed form here."""
    g = PointedGroupoid(["*", "o"],
                        {"e": ("*", "*"), "r": ("*", "*"), "i": ("o", "o")},
                        {("e", "e"): "e", ("r", "e"): "r", ("e", "r"): "r",
                         ("r", "r"): "e", ("i", "i"): "i"})
    assert g.check_axioms() == []
    with pytest.raises(NotImplementedError, match="infinite rank"):
        ad1(g).h1_certificate()


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
def test_ab_coords_of_free_nil_are_exponent_sums(data):
    k = data.draw(st.integers(1, 3), label="letters")
    points = PointedSet(list(LETTERS[:k]))
    g = free_nil(points)
    nil = AbCoords(g)
    u = data.draw(_words(k), label="word")
    v = Word(data.draw(st.permutations(u.letters), label="shuffled"))
    want = u.exponent_sums(g.gen_names)
    assert v.exponent_sums(g.gen_names) == want
    assert nil.of(nilize(u, g)) == want
    assert nil.of(nilize(v, g)) == want
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    assert [nil.of(b) for b in nil.basis] == units
