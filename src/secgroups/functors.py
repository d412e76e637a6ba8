"""Fibers, the six-term exact sequence, and the level-shifting functors.

The forgetful functors phi step a level down (stable -> reduced -> crossed
-> groupoid); their left adjoints ad step up (free crossed module on a
groupoid, nilization, stabilization).  Each rung answers with the
library's own objects: phi1 returns the `PointedGroupoid` of a finite
crossed module, its composite table filled by index, and ad1 the free
crossed module on a groupoid by its closed-form h0 and h1, refusing the h1
it has no closed form for.  ad2 and ad3 come with the unit of the
adjunction so naturality can be exercised, and `adjunction_check`
verifies the hom-set bijection by brute-force enumeration on finite
instances, with a hard cap on the search space.

`fiber` implements the pullback model: the zero level is the subgroup of
pairs (n, m') agreeing in the target base, the one level is the source M,
and the pairing is pulled back along the base projection.  `six_term`
produces the connecting sequence of a morphism and certifies exactness at
the four interior spots: at h1 x by the abelian rule `abelian.exact`, and
at h1 y, h0 Fib and h0 x by one class-2 rule, `_exact_at`: the incoming
images die under the outgoing hom, and each of its kernel generators
(`nil2.kernel_generators`, no kernel group built) lies in the subgroup
they generate.  A morphism holds its fiber once built, and each hom holds
its kernel stages and cokernel (see `nil2`), so `fiber` followed by
`six_term` on one morphism builds each of them once.  A hom's values on
the generators are read off it (`Class2Hom.values()`, the images), not
evaluated.

Every hom built here (the fiber's boundary and base projection, phi2's
automorphisms, the boundaries and units of ad2 and ad3, the connecting map
and each enumerated hom) is given by its values on the source generators
through `nil2.hom_from_values`, which tests the central ones.

Objects derived from valid ones are built unchecked: the fiber's combined
map, boundary, base projection, pairing and inclusion morphism, the
connecting map, and ad3's boundary, pairing and unit.
`tests/test_functors.py` holds them to their checks
(`test_fiber_parts_connecting_map_and_induced_maps_pass_their_checks`,
`test_ad3_unit_and_stable_module_pass_their_checks`).  ad2 keeps its
checks, because they are what expose its defect on a module whose M has a
central layer (ROADMAP item 10).  An enumerated hom or morphism is
checked, as the check is what sorts the candidates.
"""

from __future__ import annotations

import itertools

from . import intlinalg as la
from .abelian import AbMap, FinAbGroup, exact, tensor_square
from .crossed import (AbCoords, CrossedModule, CrossMorphism, FreeGroupBase,
                      GroupAction, OmegaPairing, PointedGroupoid,
                      ReducedQuadraticModule, StableQuadraticModule,
                      _subgroup_coords, quadratic_module)
from .nil2 import (Class2Elem, Class2Group, Class2Hom, Subgroup,
                   abelian_as_class2, hom_from_values, hom_cokernel,
                   hom_kernel, identity_hom, kernel_generators,
                   product_group)
from .words import PointedSet


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

class Fiber:
    """The fiber of a morphism, with its inclusion back into the source."""

    def __init__(self, obj, incl_morphism: CrossMorphism, zero_incl: Class2Hom):
        self.obj = obj
        self.incl = incl_morphism
        self.zero_incl = zero_incl  # Fib0 -> N_x X M_y


def fiber(f: CrossMorphism) -> Fiber:
    """The fiber of f, built on the first call and held on f."""
    if f._fiber is not None:
        return f._fiber
    x, y = f.src, f.tgt
    if x.level < 2:
        raise NotImplementedError("fibers are computed at level >= 2")
    n_x, m_y, n_y = x.n, y.m, y.n
    prod, embed = product_group(n_x, m_y)
    # combined map (n, m') -> f0(n) - bnd'(m'); its kernel is the pullback
    imgs = f.f0.gen_images + [v.inverse() for v in y.bnd.gen_images]
    cm = la.zeros(n_y.c.ngens, prod.c.ngens)
    for r in range(n_y.c.ngens):
        for j in range(n_x.c.ngens):
            cm[r][j] = f.f0.cmap.matrix[r][j]
        for j in range(m_y.c.ngens):
            cm[r][n_x.c.ngens + j] = -y.bnd.cmap.matrix[r][j]
    combined = Class2Hom(prod, n_y, imgs,
                         AbMap(prod.c, n_y.c, cm, check=False), check=False)
    fib0, incl0 = hom_kernel(combined)

    # boundary M_x -> Fib0 : m |-> (bnd m, f1 m)
    bnd_fib = hom_from_values(x.m, fib0, [
        fib0.element(*_coords_pair(embed(b, m), fib0, incl0))
        for b, m in zip(x.bnd.values(), f.f1.values())], check=False)

    # base projection Fib0 -> N_x
    nq, nc = n_x.q.ngens, n_x.c.ngens
    proj_values = [n_x.element(v.qvec[:nq], v.cvec[:nc])
                   for v in incl0.values()]
    proj = hom_from_values(fib0, n_x, proj_values, check=False)

    # pairing pulled back along the projection; the basis of the fiber's
    # coordinates is its first generators
    coords_fib = AbCoords(fib0)
    base_vectors = [x.coords.of(v)
                    for v in proj_values[:len(coords_fib.basis)]]
    omega_images = [x.omega.pair(u, v)
                    for u in base_vectors for v in base_vectors]
    omega_fib = OmegaPairing(coords_fib, x.m, omega_images, check=False)

    fib_obj = quadratic_module(x.m, fib0, bnd_fib, omega_fib, x.level)
    jmor = CrossMorphism(fib_obj, x, identity_hom(x.m), proj, check=False)
    f._fiber = Fiber(fib_obj, jmor, incl0)
    return f._fiber


def _coords_pair(elem: Class2Elem, sub: Class2Group, incl: Class2Hom):
    full = _subgroup_coords(elem, incl)
    return full[:sub.q.ngens], full[sub.q.ngens:]


# ---------------------------------------------------------------------------
# six-term sequence
# ---------------------------------------------------------------------------

def six_term(f: CrossMorphism) -> dict:
    """The connecting sequence of a morphism with exactness certificates.

    h1 Fib >-> h1 x -> h1 y -(delta)-> h0 Fib -> h0 x -> h0 y
    """
    x, y = f.src, f.tgt
    fib = fiber(f)
    m1 = fib.incl.induced_h1()          # h1 Fib -> h1 x
    m2 = f.induced_h1()                 # h1 x -> h1 y
    _, p_fib = hom_cokernel(fib.obj.bnd)
    m4 = fib.incl.induced_h0()          # h0 Fib -> h0 x
    m5 = f.induced_h0()                 # h0 x -> h0 y

    # delta: a kernel element m' of the target boundary gives (0, m') in
    # Fib0, which lies in the product N_x x M_y the fiber's kernel embeds in
    ky, kyi = hom_kernel(y.bnd)
    h1y_ab = ky.underlying_ab()
    zero = x.n.identity()
    delta_imgs = []
    for elem_my in kyi.values():
        pe = fib.zero_incl.target.element(zero.qvec + elem_my.qvec,
                                          zero.cvec + elem_my.cvec)
        qc, cc = _coords_pair(pe, fib.obj.n, fib.zero_incl)
        delta_imgs.append(p_fib.eval(fib.obj.n.element(qc, cc)))
    delta = hom_from_values(abelian_as_class2(h1y_ab), m4.source, delta_imgs,
                            check=False)

    report = {}
    report["h1_head_injective"] = m1.is_injective()
    report["exact_at_h1x"] = exact(m1, m2)
    report["exact_at_h1y"] = _exact_at(
        [delta.source.element(col)
         for col in la.transpose(m2.matrix, m2.source.ngens)], delta)
    report["exact_at_h0fib"] = _exact_at(delta_imgs, m4)
    report["exact_at_h0x"] = _exact_at(m4.values(), m5)
    report["exact"] = all(report[k] for k in
                          ("exact_at_h1x", "exact_at_h1y",
                           "exact_at_h0fib", "exact_at_h0x"))
    report["maps"] = (m1, m2, delta, m4, m5)
    report["fiber"] = fib
    return report


def _exact_at(images, g: Class2Hom) -> bool:
    """Exactness at the source of g: the images die under g, and every
    kernel generator of g (`nil2.kernel_generators`) lies in the subgroup
    the images generate; no kernel group is built."""
    if not all(g.eval(x).is_identity() for x in images):
        return False
    im = Subgroup(g.source, images)
    return all(im.contains(x) for x in kernel_generators(g))


# ---------------------------------------------------------------------------
# forgetful functors
# ---------------------------------------------------------------------------

def phi3(x: StableQuadraticModule) -> ReducedQuadraticModule:
    """Forget stability."""
    return ReducedQuadraticModule(x.m, x.n, x.bnd, x.omega)


def phi2(x: ReducedQuadraticModule) -> CrossedModule:
    """A reduced quadratic module as a crossed module: its action
    m^n = m + omega({bnd m} (x) {n}), one automorphism per base generator."""
    n = x.n
    autos = [hom_from_values(x.m, x.m, [x.act(g, n.generator(i))
                                        for g in x.m.generators()])
             for i in range(n.q.ngens)]
    action = GroupAction(n, x.m, autos)
    return CrossedModule(x.m, n, x.bnd, action)


def phi1(x: CrossedModule) -> PointedGroupoid:
    """The groupoid of a crossed module: the objects are the base elements,
    and a pair (n, m) is a morphism n -> n * bnd(m); (n, m) followed by
    (n * bnd(m), m') is (n, m * m').

    Object i of `base.elements()` is named o<i>, the pair of object i and
    element j of `m.elements()` is m<i*|M|+j>, and the base is the object
    of the identity.  The base is enumerated before M, so an infinite free
    base raises "infinite object set" and an infinite class-2 base or M
    raises "infinite group".
    """
    objs = list(x.base.elements())
    mel = list(x.m.elements())
    k = len(mel)

    def index(elems, e) -> int:
        return next(i for i, a in enumerate(elems) if a == e)

    bnd = [x.bnd.eval(m) for m in mel]
    tgt = [[index(objs, n * d) for d in bnd] for n in objs]
    prod = [[index(mel, a * b) for b in mel] for a in mel]
    names = ["o%d" % i for i in range(len(objs))]
    mors = {"m%d" % (i * k + j): (names[i], names[tgt[i][j]])
            for i in range(len(objs)) for j in range(k)}
    into = [[] for _ in objs]   # the morphisms into each object, in order
    for i in range(len(objs)):
        for j in range(k):
            into[tgt[i][j]].append((i, j))
    comp = {("m%d" % (i2 * k + j2), "m%d" % (i * k + j)):
            "m%d" % (i * k + prod[j][j2])
            for i2 in range(len(objs)) for j2 in range(k)
            for i, j in into[i2]}
    base = next(name for name, n in zip(names, objs) if n.is_identity())
    return PointedGroupoid(names, mors, comp, base=base)


# ---------------------------------------------------------------------------
# left adjoints
# ---------------------------------------------------------------------------

def ad3(x: ReducedQuadraticModule):
    """Stabilization: kill the symmetrized pairing values.

    Returns (stable module, unit morphism x -> phi3(result)).
    """
    coords = x.coords
    na = coords.group.ngens
    killed = []
    for i in range(na):
        for j in range(i, na):
            vec = [0] * (na * na)
            vec[i * na + j] += 1
            vec[j * na + i] += 1
            val = x.omega.eval_vec(vec)
            if not val.is_central():
                raise ValueError("symmetrized pairing value is not central; "
                                 "stabilization undefined")
            killed.append(val)
    sub = Subgroup(x.m, killed, normal=True)
    m_stab, proj = sub.quotient()
    bnd_stab = hom_from_values(m_stab, x.n, x.bnd.values(), check=False)
    om_imgs = [proj.eval(img) for img in x.omega.images]
    om_stab = OmegaPairing(coords, m_stab, om_imgs, check=False)
    stab = StableQuadraticModule(m_stab, x.n, bnd_stab, om_stab, level=3)
    unit = CrossMorphism(x, phi3(stab), proj, identity_hom(x.n), check=False)
    return stab, unit


def ad2(x: CrossedModule):
    """Nilization: the induced quadratic module on the class-2 base.

    Returns (reduced quadratic module, unit morphism x -> phi2(result)).
    """
    n_nil, to_nil = x.base.nilization()
    base_gens = [x.base.generator(i) for i in range(len(x.base.gen_names))]
    coords = AbCoords(n_nil)
    t_ab = tensor_square(coords.group)
    t_c2 = abelian_as_class2(t_ab)
    prod, embed = product_group(x.m, t_c2)
    na = coords.group.ngens

    def t_elem(vec) -> Class2Elem:
        return t_c2.element(vec)

    rel_elems = []
    m_gens = x.m.generators()
    for mg in m_gens:
        dm = coords.of(to_nil.eval(x.bnd.eval(mg)))
        for ng in base_gens:
            nv = coords.of(to_nil.eval(ng))
            moved = mg.inverse() * x.act(mg, ng)
            rel = embed(moved, t_elem([-v for v in la.kron(dm, nv)]))
            rel_elems.append(rel)
    # symmetry relations {d m} (x) {n} = -{n} (x) {d m}
    for mg in m_gens:
        dm = coords.of(to_nil.eval(x.bnd.eval(mg)))
        for ng in base_gens:
            nv = coords.of(to_nil.eval(ng))
            vec = la.vec_add(la.kron(dm, nv), la.kron(nv, dm))
            rel_elems.append(embed(x.m.identity(), t_elem(vec)))
    sub = Subgroup(prod, rel_elems, normal=True)
    m_til, proj = sub.quotient()

    # boundary: delta(m, t) = bnd(m) + commutators of t; the abelianization
    # must be the Q layer, with the generators as basis
    if len(coords.basis) > n_nil.q.ngens:
        raise NotImplementedError("nilization needs q-mode coords")
    bnd_imgs = [to_nil.eval(x.bnd.eval(g)) for g in m_gens]
    nq = x.m.q.ngens
    bnd_til = hom_from_values(m_til, n_nil, bnd_imgs[:nq] + [
        gi.commutator(gj) for gi in coords.basis
        for gj in coords.basis] + bnd_imgs[nq:])

    om_imgs = []
    for i in range(na):
        for j in range(na):
            vec = [0] * (na * na)
            vec[i * na + j] = 1
            om_imgs.append(proj.eval(embed(x.m.identity(), t_elem(vec))))
    om = OmegaPairing(coords, m_til, om_imgs)
    rqm = ReducedQuadraticModule(m_til, n_nil, bnd_til, om)

    # unit morphism into phi2(rqm)
    unit_f1 = hom_from_values(x.m, m_til, [
        proj.eval(embed(g, t_c2.identity())) for g in m_gens])
    unit = CrossMorphism(x, phi2(rqm), unit_f1, to_nil)
    return rqm, unit


class PresentedCrossedModule:
    """Free crossed module on a groupoid, given by presentation certificates.

    The underlying base is the free group on the objects away from the
    basepoint; one module generator per morphism with boundary -U+V for a
    morphism U -> V, and one relation per entry of the composition table.
    h0 and h1 are delivered as closed-form certificates.
    """

    level = 1

    def __init__(self, groupoid: PointedGroupoid):
        self.groupoid = groupoid
        self.base = FreeGroupBase(PointedSet(
            [o for o in groupoid.objects if o != groupoid.base]))

    def h0_certificate(self) -> FreeGroupBase:
        """Closed form: the free group on the isomorphism classes."""
        return FreeGroupBase(self.groupoid.h0())

    def h1_certificate(self) -> FinAbGroup:
        """Closed form: the abelianized automorphism group at the base when
        the groupoid is connected, and 0 when every automorphism group has
        trivial abelianization.  Otherwise the group-ring factor over the
        classes away from the base has infinite rank, and no closed form
        is given: NotImplementedError."""
        g = self.groupoid
        classes = g.iso_classes()
        if len(classes) == 1:
            return g.h1().abelianization()
        if all(g.h1(c[0]).abelianization().is_trivial() for c in classes):
            return FinAbGroup(0)
        raise NotImplementedError(
            "h1 of a free crossed module on a groupoid with several classes "
            "and a nontrivial abelianized automorphism group: the group-ring "
            "factor over the other classes has infinite rank")


def ad1(g: PointedGroupoid) -> PresentedCrossedModule:
    return PresentedCrossedModule(g)


# ---------------------------------------------------------------------------
# adjunction check by enumeration
# ---------------------------------------------------------------------------

ADJUNCTION_CAP = 10 ** 6


def _enumerate_homs(s, t, cap: int):
    """All homomorphisms s -> t; s free (a free base or a free class-2
    group) or t finite."""
    telems = list(t.elements())
    if s.is_free():  # pick any images
        total = len(telems) ** len(s.gen_names)
        if total > cap:
            raise RuntimeError("enumeration cap exceeded")
        for imgs in itertools.product(telems, repeat=len(s.gen_names)):
            yield s.free_hom(t, list(imgs))
        return
    centrals = [e for e in t.elements() if all(v == 0 for v in e.qvec)]
    total = (len(telems) ** s.q.ngens) * (len(centrals) ** s.c.ngens)
    if total > cap:
        raise RuntimeError("enumeration cap exceeded")
    for imgs in itertools.product(telems, repeat=s.q.ngens):
        for cimgs in itertools.product(centrals, repeat=s.c.ngens):
            try:
                yield hom_from_values(s, t, list(imgs + cimgs))
            except ValueError:
                continue


def enumerate_morphisms(x, y, cap: int = ADJUNCTION_CAP):
    """All morphisms x -> y of same-level objects with finite targets."""
    out = []
    f0s = list(_enumerate_homs(x.base, y.base, cap))
    f1s = list(_enumerate_homs(x.m, y.m, cap))
    if len(f0s) * len(f1s) > cap:
        raise RuntimeError("enumeration cap exceeded")
    for f0 in f0s:
        for f1 in f1s:
            try:
                out.append(CrossMorphism(x, y, f1, f0))
            except ValueError:
                continue
    return out


def compose_morphisms(g: CrossMorphism, f: CrossMorphism) -> CrossMorphism:
    """g after f."""
    return CrossMorphism(f.src, g.tgt, g.f1.compose(f.f1),
                         g.f0.compose(f.f0), check=False)


def morphisms_equal(a: CrossMorphism, b: CrossMorphism) -> bool:
    return a.f1 == b.f1 and a.f0 == b.f0


def adjunction_check(n: int, x, y, cap: int = ADJUNCTION_CAP) -> dict:
    """Verify |Hom(x, phi_n y)| == |Hom(ad_n x, y)| and that the canonical
    map g |-> phi_n(g) o unit realizes the bijection."""
    if n == 2:
        adj, unit = ad2(x)
        phi_y = phi2(y)
        phi = phi2
    elif n == 3:
        adj, unit = ad3(x)
        phi_y = phi3(y)
        phi = phi3
    else:
        raise ValueError("adjunction check implemented for n in {2, 3}")
    left = enumerate_morphisms(adj, y, cap)
    right = enumerate_morphisms(x, phi_y, cap)
    images = []
    for g in left:
        pg = CrossMorphism(phi(adj), phi_y, g.f1, g.f0, check=False)
        images.append(compose_morphisms(pg, unit))
    matched = 0
    used = [False] * len(right)
    for im in images:
        for i, r in enumerate(right):
            if not used[i] and morphisms_equal(im, r):
                used[i] = True
                matched += 1
                break
    return {
        "hom_adj": len(left),
        "hom_phi": len(right),
        "counts_equal": len(left) == len(right),
        "bijection": matched == len(left) == len(right),
    }
