"""Crossed modules, quadratic modules, pairings, groupoids, and their
homotopy groups."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from secgroups.words import PointedSet, Word
from secgroups.abelian import FinAbGroup, AbMap, tensor_square_relations
from secgroups import intlinalg as la
from secgroups.nil2 import (Class2Elem, Class2Group, Class2Hom, free_nil,
                            hom_cokernel, hom_from_values, hom_kernel,
                            identity_hom)
from secgroups.crossed import (
    FreeBaseHom, FreeGroupBase, WordHom, AbCoords, GroupAction, OmegaPairing,
    CrossedModule, PointedGroupoid, ReducedQuadraticModule,
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
    """a -> a, b -> b a maps commutators to commutators, but its images do
    not commute, so it is no hom of a class-2 group; unchecked, it still
    evaluates letter by letter."""
    points = PointedSet(["a", "b"])
    g = free_nil(points)
    base = FreeGroupBase(points)
    from secgroups.words import commutator_word
    u, v = Word.parse("a"), Word.parse("b a")
    with pytest.raises(ValueError, match="do not commute"):
        WordHom(g, base, [u, v], [commutator_word(u, v)])
    f = WordHom(g, base, [u, v], [commutator_word(u, v)], check=False)
    x = g.generator(0) * g.generator(1)
    assert f.eval(x) == Word.parse("a b a")
    WordHom(g, base, [u, u ** 2], [Word()]).validate()


def _e1_e2_is_z_inverse():
    """Q = Z^2 / (1, 1), C = Z, beta = e1(x)e1 - e1(x)e2 - e2(x)e1 +
    e2(x)e2, lam = 0: a valid group where the relation's ordered product
    e1 e2 is z^-1, as it collects -1."""
    return Class2Group(FinAbGroup(2, [[1, 1]]), FinAbGroup(1),
                       [[1, -1, -1, 1]])


def test_word_hom_validation_reads_the_identity_of_each_q_relation():
    """The identity over a Q relation r is (r, 0), not the ordered product
    (r, collect(r)).  The check tested the ordered product: it refused
    e1 -> 1, e2 -> a^-1, z -> a, a hom, with "Q relation [1, 1] survives",
    and accepted e1 -> a, e2 -> a^-1, z -> a, where e1 e2 goes to 1 and
    z^-1 to a^-1."""
    g = _e1_e2_is_z_inverse()
    assert g.element([1, 1], g.collect_central([1, 1])) == g.central([-1])
    base = FreeGroupBase(PointedSet(["*", "a"]))
    a = Word.parse("a")
    f = WordHom(g, base, [Word(), a ** -1], [a])
    assert f.eval(g.generator(0) * g.generator(1)) == f.eval(g.central([-1]))
    with pytest.raises(ValueError, match=r"Q relation \[1, 1\] survives"):
        WordHom(g, base, [a, a ** -1], [a])


def test_word_hom_validation_needs_commuting_images():
    """On Z x Z with its second factor as the C layer, x -> a, z -> b
    passed every former check, yet h(z) h(x) != h(z x)."""
    g = Class2Group(FinAbGroup(1), FinAbGroup(1), [[0]])
    base = FreeGroupBase(PointedSet(["*", "a", "b"]))
    a, b = Word.parse("a"), Word.parse("b")
    x, z = g.generator(0), g.central_generator(0)
    with pytest.raises(ValueError, match="do not commute"):
        WordHom(g, base, [a], [b])
    bad = WordHom(g, base, [a], [b], check=False)
    assert bad.eval(z) * bad.eval(x) != bad.eval(z * x)
    WordHom(g, base, [a], [a ** 3])


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


def _unchecked_class2(draw, nq, nc, beta=None):
    """Class2Group(check=False) with at most two Q and two C relations and
    a small beta unless given."""
    q, c = FinAbGroup(nq, _relations(draw, nq)), \
        FinAbGroup(nc, _relations(draw, nc))
    if beta is None:
        beta = _matrix(draw, nc, nq * nq)
    return Class2Group(q, c, beta, check=False)


def _symmetric(draw, nc, nq):
    """A small nc x nq^2 matrix whose entries (i, j) and (j, i) are equal:
    a beta with beta - beta o swap = 0."""
    rows = _matrix(draw, nc, nq * nq)
    return [[row[min(i, j) * nq + max(i, j)] for i in range(nq)
             for j in range(nq)] for row in rows]


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
    """Random M = Class2Group(check=False), nq 0-4, nc 0-3, small beta;
    N_ab with 0-2 generators."""
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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_omega_pair_matches_evaluation_on_the_kronecker_vector(data):
    """`pair(a, b)` collects over the nonzero (i, j) of a (x) b; it gives
    the vectors `eval_vec(la.kron(a, b))` gives, and `eval_vec` of a unit
    vector gives its image's own vectors.

    Mutations this catches: visiting the pairs column-major, and taking
    the first nonzero entry of b for every j."""
    draw = data.draw
    m = _unchecked_class2(draw, draw(st.integers(0, 3)),
                          draw(st.integers(0, 2)))
    na = draw(st.integers(0, 3))
    images = [m.element(draw(_vectors(m.q.ngens, st.integers(-2, 2))),
                        draw(_vectors(m.c.ngens)))
              for _ in range(na * na)]
    om = OmegaPairing(AbCoords(abelian_as_class2(FinAbGroup(na))), m,
                      images, check=False)
    a, b = draw(_vectors(na, st.integers(-3, 3))), \
        draw(_vectors(na, st.integers(-3, 3)))
    got, want = om.pair(a, b), om.eval_vec(la.kron(a, b))
    assert (got.qvec, got.cvec) == (want.qvec, want.cvec)
    for p, img in enumerate(images):
        unit = om.eval_vec([int(p == k) for k in range(na * na)])
        assert (unit.qvec, unit.cvec) == (img.qvec, img.cvec)


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
    the wedge of a free class-2 group on up to four letters: beta is the
    free one plus a symmetric matrix, so lam is the free one) or the full
    pair presentation (a symmetric beta, so lam = 0, and at least one
    central generator)."""
    if mode == "q":
        free = free_nil(PointedSet(["*"] + ["a", "b", "c", "d"][
            :draw(st.integers(0, 4))]))
        nq, nc = free.q.ngens, free.c.ngens
        return _unchecked_class2(draw, nq, nc, beta=[
            la.vec_add(f, x)
            for f, x in zip(free.beta, _symmetric(draw, nc, nq))])
    nc = draw(st.integers(1, 2))
    nq = draw(st.integers(0, 4 - nc))
    return _unchecked_class2(draw, nq, nc, beta=_symmetric(draw, nc, nq))


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
    assume((coords.group.ngens == n.q.ngens) == (mode == "q"))
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


def _twisted_module():
    """M = Z^3 on x, w1, w2 into the free class-2 group on a, b, c by
    x -> a [b, c], w1 -> [a, b], w2 -> [a, c].  a acts trivially; b and c
    fix w1 and w2 and send x to x w1^s w2^t, where conjugating x's image
    by them multiplies it by [a, b]^s [a, c]^t.  The projection onto the
    cokernel is twisted: a goes to a [b, c]^-1."""
    n = free_nil(PointedSet(["*", "a", "b", "c"]))
    m = abelian_as_class2(FinAbGroup(3), ["x", "w1", "w2"])
    a, b, c, ab, ac, bc = n.generators()
    x, w1, w2 = m.generators()
    dx = a * bc
    autos = [identity_hom(m)]
    for g in (b, c):
        s, t, _ = (dx.inverse() * dx.conjugate_by(g)).cvec
        autos.append(hom_from_values(m, m, [x * w1 ** s * w2 ** t, w1, w2]))
    bnd = hom_from_values(m, n, [dx, ab, ac])
    return CrossedModule(m, n, bnd, GroupAction(n, m, autos))


def test_induced_h0_reads_the_sections_of_a_twisted_projection():
    """Generator i of the source's h0 is the image of the section
    (e_i, -T e_i), not of e_i: the identity of a module whose projection
    has the twist T = -[b, c] on a induces a valid h0 map and is a weak
    equivalence."""
    x = _twisted_module()
    assert check_axioms(x) == []
    proj = hom_cokernel(x.bnd)[1]
    assert [g.cvec for g in proj.gen_images] == [[0, 0, -1], [0, 0, 0],
                                                 [0, 0, 0]]
    f = CrossMorphism(x, x, identity_hom(x.m), identity_hom(x.base))
    f.induced_h0().validate()
    assert f.induced_h0().is_isomorphism()
    assert f.is_weak_equivalence()


def test_induced_h1_refuses_a_free_base():
    _, unit = ad2(wedge_model(1, PointedSet(["*", "a"])))
    with pytest.raises(NotImplementedError, match="free base"):
        unit.induced_h1()
    with pytest.raises(NotImplementedError, match="free base"):
        unit.is_weak_equivalence()


def test_groupoid_check_and_h0_h1():
    g = cyclic_groupoid(4)
    assert g.check_axioms() == []
    assert g.h1().order() == 4
    assert g.h1().abelianization().invariant_factors == (4,)
    assert len(g.h0().nonbase()) == 0

    k = klein_groupoid()
    assert k.h1().abelianization().invariant_factors == (2, 2)

    d = discrete_groupoid(["p", "q"])
    assert len(d.h0().nonbase()) == 2
    assert d.h1().order() == 1


def test_groupoid_check_reports_a_missing_composite():
    """(r, r) is missing: reported, and the associativity triples that
    need it are skipped instead of raising KeyError."""
    g = PointedGroupoid(["*"], {"e": ("*", "*"), "r": ("*", "*")},
                        {("e", "e"): "e", ("r", "e"): "r", ("e", "r"): "r"})
    assert g.check_axioms() == ["missing composite (r,r)"]


def test_groupoid_check_reports_an_unknown_morphism():
    g = PointedGroupoid(["*"], {"e": ("*", "*")}, {("e", "e"): "x"})
    assert g.check_axioms() == ["composite (e,e) names unknown morphism x"]
    g = PointedGroupoid(["*"], {"e": ("*", "*")},
                        {("e", "e"): "e", ("y", "e"): "e"})
    assert g.check_axioms() == ["composite (y,e) names unknown morphism y"]


def _former_groupoid_check(g: PointedGroupoid) -> list[str]:
    """The former `PointedGroupoid.check_axioms`, which raised KeyError on
    a missing composite or an unknown morphism."""
    out = []
    for (b, a), c in g.compose_table.items():
        if g.target(a) != g.source(b):
            out.append("composite (%s,%s) not composable" % (b, a))
        elif g.source(c) != g.source(a) or g.target(c) != g.target(b):
            out.append("composite (%s,%s) has wrong endpoints" % (b, a))
    for a, (_, at) in g.morphisms.items():
        for b, (bs, _) in g.morphisms.items():
            if at == bs and (b, a) not in g.compose_table:
                out.append("missing composite (%s,%s)" % (b, a))
    for a in g.morphisms:
        for b in g.morphisms:
            for c in g.morphisms:
                if g.target(a) == g.source(b) and g.target(b) == g.source(c):
                    if g.compose(c, g.compose(b, a)) != \
                            g.compose(g.compose(c, b), a):
                        out.append("associativity fails at (%s,%s,%s)"
                                   % (c, b, a))
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_groupoid_check_matches_its_former_body_or_reports(data):
    """Random tables on two objects, with entries dropped and names out of
    the morphism set: the check never raises; where the former body
    answered, the answers are equal, and where it raised KeyError (a
    missing composite, an unknown morphism, or a composite with the wrong
    endpoints that associativity then composed further), a violation of
    the table is reported."""
    objs = ["*", "o"]
    names = ["f%d" % i for i in range(data.draw(st.integers(1, 4)))]
    mors = {f: (data.draw(st.sampled_from(objs)),
                data.draw(st.sampled_from(objs))) for f in names}
    values = st.sampled_from(names + ["x"])
    table = {(b, a): data.draw(values) for a in names for b in names
             if mors[a][1] == mors[b][0] and data.draw(st.integers(0, 5))}
    if data.draw(st.booleans()):
        table[("x", names[0])] = names[0]
    g = PointedGroupoid(objs, mors, table)
    got = g.check_axioms()
    try:
        former = _former_groupoid_check(g)
    except KeyError:
        assert any(v.startswith("missing composite") or "unknown morphism" in v
                   or "wrong endpoints" in v for v in got), got
    else:
        assert got == former


def test_h0_undecidable_on_free_base():
    points = PointedSet(["a", "b"])
    base = FreeGroupBase(points)
    m = abelian_as_class2(FinAbGroup(0), [])
    bnd = WordHom(m, base, [])
    cm = CrossedModule(m, base, bnd, GroupAction.trivial(base, m))
    with pytest.raises(H0Undecidable):
        cm.h0_order(cap=100)


def _h1_over_one_letter(m_ab: FinAbGroup, exps):
    """h1 of M -> F(a), x_i -> a^e_i, checked against the abelian kernel
    of M -> Z and against the splitting M = ker + Z when some e_i is not
    zero (the image is free), and returned."""
    base = FreeGroupBase(PointedSet(["a"]))
    m = abelian_as_class2(m_ab)
    h1 = base.h1_of(WordHom(m, base, [Word([("a", e)]) if e else Word()
                                      for e in exps]))
    assert h1.is_isomorphic_to(
        AbMap(m_ab, FinAbGroup(1), [list(exps)]).kernel()[0])
    drop = 1 if any(exps) else 0
    assert (h1.free_rank, h1.invariant_factors) == (
        m_ab.free_rank - drop, m_ab.invariant_factors)
    return h1


def test_h1_over_a_free_base_relates_exactly():
    """The kernel's relations are M's relations in the kernel basis,
    solved exactly.  Solved modulo those same relations, this h1 read
    Z x Z/38."""
    h1 = _h1_over_one_letter(
        FinAbGroup(4, [[6, -2, -6, 2], [1, -4, -3, -1], [-18, 2, 21, -4]]),
        [-3, 0, -2, 3])
    assert (h1.free_rank, h1.invariant_factors) == (0, (38,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_h1_over_a_free_base_matches_the_abelian_kernel(data):
    """Random boundaries into one letter; M's relations are drawn from
    the vectors the exponents send to 0, so the boundary is defined."""
    nm = data.draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    exps = data.draw(st.lists(coeff, min_size=nm, max_size=nm))
    ker = la.kernel_basis([exps], nm)
    rels = [la.mat_vec(la.transpose(ker, nm),
                       data.draw(st.lists(coeff, min_size=len(ker),
                                          max_size=len(ker))))
            for _ in range(data.draw(st.integers(0, 3)))]
    _h1_over_one_letter(FinAbGroup(nm, rels), exps)


def _h1_over_two_letters(images):
    """h1 of Z^n -> F(a, b), x_i -> images[i], with the trivial action."""
    base = FreeGroupBase(PointedSet(["*", "a", "b"]))
    m = abelian_as_class2(FinAbGroup(len(images)))
    bnd = WordHom(m, base, images)
    return CrossedModule(m, base, bnd, GroupAction.trivial(base, m)).h1()


@pytest.mark.parametrize("images", [("a b a^-1", "a b^2 a^-1"),
                                    ("b", "b^2"),
                                    ("a b^2 a^-1", "a b^-2 a^-1")])
def test_h1_over_a_free_base_reads_a_conjugated_root(images):
    """Commuting images are powers of one root, which need not be
    cyclically reduced (a b a^-1 in the first case): h1 is Z, the kernel
    of the exponents (1, 2), (1, 2) and (1, -1)."""
    h1 = _h1_over_two_letters([Word.parse(w) for w in images])
    assert (h1.ngens, h1.free_rank, h1.invariant_factors) == (1, 1, ())


_LETTER = st.tuples(st.sampled_from("ab"), st.sampled_from([-1, 1]))


@given(st.lists(_LETTER, max_size=4), st.lists(_LETTER, min_size=1,
                                               max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_h1_over_a_free_base_matches_the_kernel_of_the_exponents(u, r, exps):
    """x_i -> u r^e_i u^-1 for random words u and r (r nontrivial): h1 is
    the kernel of Z^n -> Z, x_i -> e_i."""
    u, r = Word(u), Word(r)
    assume(not r.is_trivial())
    h1 = _h1_over_two_letters([u * r ** e * u.inverse() for e in exps])
    n = len(exps)
    assert h1.is_isomorphic_to(
        AbMap(FinAbGroup(n), FinAbGroup(1), [exps]).kernel()[0])


def test_h0_order_finite_on_free_base():
    # Z --(x -> a^5)--> F(a) presents Z/5
    points = PointedSet(["a"])
    base = FreeGroupBase(points)
    m = abelian_as_class2(FinAbGroup(1), ["x0"])
    bnd = WordHom(m, base, [Word.parse("a^5")])
    cm = CrossedModule(m, base, bnd, GroupAction.trivial(base, m))
    assert cm.h0_order(cap=100) == 5
