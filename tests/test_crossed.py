"""Crossed modules, quadratic modules, pairings, groupoids, and their
homotopy groups."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from secgroups.words import PointedSet, Word
from secgroups.abelian import FinAbGroup, AbMap, tensor_square_relations
from secgroups import intlinalg as la
from secgroups.nil2 import (Class2Elem, Class2Group, Class2Hom, free_nil,
                            hom_kernel, identity_hom)
from secgroups.crossed import (
    FreeBaseHom, FreeGroupBase, WordHom, AbCoords, GroupAction, OmegaPairing,
    CrossedModule, ReducedQuadraticModule,
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


def test_free_base_hom_equality_compares_source_target_and_images():
    ab = FreeGroupBase(PointedSet(["a", "b"]))
    g, to_nil = ab.nilization()
    x, y = g.generator(0), g.generator(1)
    assert to_nil == FreeBaseHom(ab, g, [x, y])
    assert to_nil != FreeBaseHom(ab, g, [x, x])
    # a map out of the free group on {a} is not the one out of {a, b}
    assert FreeBaseHom(FreeGroupBase(PointedSet(["a"])), g, [x]) != to_nil
    assert to_nil != FreeBaseHom(ab, free_nil(PointedSet(["a", "b"])),
                                 [x, y])
    # nor is a class-2 hom, either way round
    assert to_nil != identity_hom(g) and identity_hom(g) != to_nil


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
    for rel in tensor_square_relations(om.coords.group):
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


def _relations(draw, ngens):
    return _matrix(draw, draw(st.integers(0, 2)), ngens, st.integers(-4, 4))


def _unchecked_class2(draw, nq, nc, lam=None):
    """Class2Group(check=False) with at most two Q and two C relations and
    a small beta; lam is beta itself or beta - beta o swap unless given."""
    q, c = FinAbGroup(nq, _relations(draw, nq)), \
        FinAbGroup(nc, _relations(draw, nc))
    beta = _matrix(draw, nc, nq * nq)
    if lam is None:
        lam = beta if draw(st.booleans()) else [
            [row[i * nq + j] - row[j * nq + i]
             for i in range(nq) for j in range(nq)] for row in beta]
    return Class2Group(q, c, lam, beta, check=False)


def test_omega_pairing_runs_no_smith_normal_form(monkeypatch):
    """Building a pairing builds no tensor-square group, so it runs no SNF,
    also over a group with general relations whose tensor square's SNF
    grows its entries for minutes.  The group is Z through phi."""
    g = FinAbGroup(4, [[2, 2, -2, 1], [4, 1, -3, 3], [4, -3, -2, 4]])
    coords = AbCoords(abelian_as_class2(g))
    phi, = la.kernel_basis(g.relations, 4)
    m = abelian_as_class2(FinAbGroup(1))
    good = [m.element([a * b]) for a in phi for b in phi]
    bad = [m.generator(0)] + [m.identity()] * 15
    calls = []

    def counted(*args, **kwargs):
        # stop at the first call: the SNF of that tensor square runs for
        # minutes
        calls.append(args)
        raise AssertionError("building a pairing ran an SNF")

    monkeypatch.setattr(la, "smith_normal_form", counted)
    for images in (good, bad):
        OmegaPairing(coords, m, images, check=False)
    OmegaPairing(coords, m, good, check=True)
    with pytest.raises(ValueError, match="not defined modulo relations"):
        OmegaPairing(coords, m, bad, check=True)
    assert calls == []


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_omega_validate_matches_all_pairs_oracle(data):
    """Random M = Class2Group(check=False), nq 0-4, nc 0-3, small beta and
    in some cases lam != beta - beta o swap; N_ab with 0-2 generators."""
    draw = data.draw
    nq, nc = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    na = draw(st.sampled_from([0, 1, 2, 2]))
    m = _unchecked_class2(draw, nq, nc)
    n_ab = FinAbGroup(na, _matrix(draw, draw(st.integers(0, 2)), na,
                                  st.integers(-4, 4)))
    images = [m.element(draw(_vectors(nq, st.integers(-2, 2))),
                        draw(_vectors(nc)))
              for _ in range(na * na)]
    om = OmegaPairing(AbCoords(abelian_as_class2(n_ab)), m, images,
                      check=False)
    assert _error(om.validate) == _error(lambda: _all_pairs_validate(om))


def _reduced_axioms_oracle(x) -> list[str]:
    """The former `ReducedQuadraticModule.check_axioms`: the boundary and
    the coordinates re-derived inside every generator loop, and every
    pairing evaluated."""
    out = list(x.omega.centrality_violations())
    n_gens = x.n.generators()
    m_gens = x.m.generators()
    for i, a in enumerate(n_gens):
        for j, b in enumerate(n_gens):
            if not x.bnd.eval(x.omega.pair_elems(a, b)) == a.commutator(b):
                out.append("RQ1 fails at base gens %d,%d" % (i, j))
    for i, a in enumerate(m_gens):
        da = x.bnd.eval(a)
        for j, b in enumerate(m_gens):
            db = x.bnd.eval(b)
            if not x.omega.pair_elems(da, db) == a.commutator(b):
                out.append("RQ2 fails at m gens %d,%d" % (i, j))
    for i, a in enumerate(m_gens):
        da = x.coords.of(x.bnd.eval(a))
        for j, b in enumerate(n_gens):
            bv = x.coords.of(b)
            val = x.omega.eval_vec(la.vec_add(la.kron(da, bv),
                                              la.kron(bv, da)))
            if not val.is_identity():
                out.append("RQ3 fails at m gen %d, base gen %d" % (i, j))
    if not all(x.bnd.eval(g).is_central() for g in m_gens):
        out.append("boundary image is not central in the base")
    return out


def _stable_axioms_oracle(x) -> list[str]:
    """The former `StableQuadraticModule.check_axioms`."""
    out = _reduced_axioms_oracle(x)
    na = x.coords.group.ngens
    for i in range(na):
        for j in range(na):
            vec = [0] * (na * na)
            vec[i * na + j] += 1
            vec[j * na + i] += 1
            if not x.omega.eval_vec(vec).is_identity():
                out.append("stability fails at (%d,%d)" % (i, j))
    return out


def _crossed_axioms_oracle(x) -> list[str]:
    """The former `CrossedModule.check_axioms`: the boundary of each
    generator of M taken again inside every loop."""
    out = []
    m_gens = x.m.generators()
    base_gens = x.base.generators()
    for i, mg in enumerate(m_gens):
        dm = x.bnd.eval(mg)
        for j, ng in enumerate(base_gens):
            if not x.bnd.eval(x.act(mg, ng)) == dm.conjugate_by(ng):
                out.append("CM1 fails at m gen %d, base gen %d" % (i, j))
    for i, mg in enumerate(m_gens):
        for j, mg2 in enumerate(m_gens):
            if not x.act(mg, x.bnd.eval(mg2)) == mg2.inverse() * mg * mg2:
                out.append("CM2 fails at m gens %d,%d" % (i, j))
    return out


def _element(draw, g):
    return g.element(draw(_vectors(g.q.ngens)), draw(_vectors(g.c.ngens)))


def _unchecked_hom(draw, s, t, central=False):
    """A Class2Hom(check=False) with random images; central ones (Q part
    zero) when central is set."""
    cmap = AbMap(s.c, t.c, _matrix(draw, t.c.ngens, s.c.ngens), check=False)
    if central:
        images = [t.central(draw(_vectors(t.c.ngens)))
                  for _ in range(s.q.ngens)]
    else:
        images = [_element(draw, t) for _ in range(s.q.ngens)]
    return Class2Hom(s, t, images, cmap, check=False)


def _base_of_mode(draw, mode):
    """A Class2Group(check=False) with general relations and at most four
    coordinates, whose `AbCoords` takes the Q layer (its central layer is
    the wedge of a free class-2 group on up to four letters) or the full
    pair presentation (lam = 0 and at least one central generator)."""
    if mode == "q":
        free = free_nil(PointedSet(["*"] + ["a", "b", "c", "d"][
            :draw(st.integers(0, 4))]))
        return _unchecked_class2(draw, free.q.ngens, free.c.ngens,
                                 lam=free.lam)
    nc = draw(st.integers(1, 2))
    nq = draw(st.integers(0, 4 - nc))
    return _unchecked_class2(draw, nq, nc, lam=la.zeros(nc, nq * nq))


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("mode", ["q", "full"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_quadratic_check_axioms_matches_former_bodies(mode, level, data):
    """Random M and N = Class2Group(check=False), random boundary and omega
    images: the boundary-table check gives the same violations, in the same
    order, as the bodies it replaced.  About half the draws have a wedge's
    shape, which random draws almost never have: M without central layer
    (so abelian) and a boundary whose images have zero Q parts, so that RQ2
    has no pair to visit."""
    draw = data.draw
    n = _base_of_mode(draw, mode)
    coords = AbCoords(n)
    assume(coords.mode == mode)
    wedge_shape = draw(st.booleans())
    m = _unchecked_class2(draw, draw(st.integers(0, 3)),
                          0 if wedge_shape else draw(st.integers(0, 2)))
    na = coords.group.ngens
    omega = OmegaPairing(coords, m, [_element(draw, m)
                                     for _ in range(na * na)], check=False)
    bnd = _unchecked_hom(draw, m, n, central=wedge_shape)
    x = quadratic_module(m, n, bnd, omega, level)
    oracle = _reduced_axioms_oracle if level == 2 else _stable_axioms_oracle
    assert x.check_axioms() == oracle(x)


def _outcome(check):
    """Violations, or the error of a random action: `Class2Hom.inverse`
    raises ValueError on a map that is not invertible and asserts its
    result."""
    try:
        return check()
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_crossed_check_axioms_matches_former_body(data):
    """Random crossed modules over a class-2 or a free base: random
    boundary, action by the identity or by random maps of M."""
    draw = data.draw
    m = _unchecked_class2(draw, draw(st.integers(0, 3)),
                          draw(st.integers(0, 2)))
    if draw(st.booleans()):
        base = FreeGroupBase(PointedSet(["*", "a", "b"][:draw(
            st.integers(2, 3))]))
        words = st.lists(st.tuples(st.sampled_from(base.gen_names),
                                   st.sampled_from([1, -1, 2])), max_size=3)
        bnd = WordHom(m, base, [Word(draw(words)) for _ in range(m.q.ngens)],
                      [Word(draw(words)) for _ in range(m.c.ngens)],
                      check=False)
        assert [w.letters for w in bnd.values()] == [
            bnd.eval(g).letters for g in m.generators()]
    else:
        base = _base_of_mode(draw, "q")
        bnd = _unchecked_hom(draw, m, base)
    autos = [identity_hom(m) if draw(st.booleans())
             else _unchecked_hom(draw, m, m) for _ in base.gen_names]
    x = CrossedModule(m, base, bnd, GroupAction(base, m, autos, check=False))
    assert _outcome(x.check_axioms) == _outcome(
        lambda: _crossed_axioms_oracle(x))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_check_axioms_evaluates_each_boundary_once(n, k, monkeypatch):
    """The boundary table is read off the boundary's values, so the
    boundary is evaluated only once per nonzero pairing of base generators:
    na^2 calls, where the former check made 37, 144, 404 and 925 at
    k = 2..5."""
    x = wedge_model(n, PointedSet(["*"] + ["a", "b", "c", "d", "e"][:k]))
    calls = []
    real = Class2Hom.eval

    def counted(self, elem):
        calls.append(elem)
        return real(self, elem)

    monkeypatch.setattr(Class2Hom, "eval", counted)
    monkeypatch.setattr(Class2Hom, "__call__", counted)
    assert check_axioms(x) == []
    na = x.coords.group.ngens
    assert len(calls) == na * na


def test_wedge_axioms_and_kernel_skip_the_zero_pairs(monkeypatch):
    """On the level-2 wedge of four letters M is abelian and its boundary
    lands in the centre: `check_axioms` compares no element of M, as RQ2
    visits no pair, and pairs only the base generators' coordinates for
    RQ1; `hom_kernel` solves nothing for its cocycle table, as every
    commutator of the kernel basis is zero."""
    x = wedge_model(2, PointedSet(["*", "a", "b", "c", "d"]))
    compared, paired, solved = [], [], []
    real_eq, real_pair = Class2Elem.__eq__, OmegaPairing.pair
    real_preimage = AbMap.preimage

    def eq(self, other):
        compared.append(self.group)
        return real_eq(self, other)

    def pair(self, a_vec, b_vec):
        paired.append((a_vec, b_vec))
        return real_pair(self, a_vec, b_vec)

    def preimage(self, y):
        solved.append(self.target)
        return real_preimage(self, y)

    monkeypatch.setattr(Class2Elem, "__eq__", eq)
    monkeypatch.setattr(OmegaPairing, "pair", pair)
    monkeypatch.setattr(AbMap, "preimage", preimage)
    assert check_axioms(x) == []
    assert compared and not any(g is x.m for g in compared)
    assert len(paired) == 4 * 4
    k, _ = hom_kernel(x.bnd)
    assert k.q.ngens == 10
    # the cocycle table solves against the inclusion of the kernel of the
    # boundary's central-layer map, a map into M's central layer
    assert not any(t is x.m.c for t in solved)


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
