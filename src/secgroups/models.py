"""Small algebraic models of two-stage homotopy types: wedges of spheres.

`wedge_model(n, points)` returns the level-n model of a wedge of n-spheres
indexed by the non-base points:

    n = 1   the trivial boundary into the free group,
    n = 2   the tensor square of the free abelian group, identity pairing,
    n >= 3  the reduced tensor square with the stable pairing,

with the boundary sending a pure tensor x (x) y to the commutator [x, y] in
the free class-2 group.  `homotopy_groups` reads off (h0, h1) and
`k_invariant` computes the quadratic attaching map from h0's quadratic
functor into h1, together with a well-definedness certificate.
"""

from __future__ import annotations

from . import intlinalg as la
from .abelian import AbMap, FinAbGroup
from .crossed import (AbCoords, CrossedModule, FreeGroupBase, GroupAction,
                      OmegaPairing, WordHom, _subgroup_coords,
                      quadratic_module)
from .nil2 import (Class2Hom, abelian_as_class2, boundary_map, free_nil,
                   hom_cokernel, hom_from_values, hom_kernel, level_gamma,
                   level_gamma_map)
from .words import PointedSet


def wedge_model(n: int, points: PointedSet):
    """The level-n model of a wedge of n-spheres on a pointed set."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n == 1:
        base = FreeGroupBase(points)
        m = abelian_as_class2(FinAbGroup(0))
        bnd = WordHom(m, base, [], [], check=False)
        return CrossedModule(m, base, bnd, GroupAction.trivial(base, m))
    ngroup = free_nil(points)
    k = ngroup.q.ngens
    lts, bmap, _, _ = boundary_map(n, ngroup)
    names = ["%s*%s" % (ngroup.gen_names[i], ngroup.gen_names[j])
             for i in range(k) for j in range(k)]
    m = abelian_as_class2(lts, names)
    gen_images = [ngroup.central(
        [bmap.matrix[r][p] for r in range(ngroup.c.ngens)])
        for p in range(lts.ngens)]
    bnd = Class2Hom(m, ngroup, gen_images,
                    AbMap(m.c, ngroup.c, la.zeros(ngroup.c.ngens, 0),
                          check=False), check=False)
    coords = AbCoords(ngroup)
    omega_images = [m.generator(p) for p in range(lts.ngens)]
    omega = OmegaPairing(coords, m, omega_images,
                         check=(n == 2))
    return quadratic_module(m, ngroup, bnd, omega, n)


def homotopy_groups(x):
    """(h0, h1) of a level-n model; h0 is group-like, h1 abelian."""
    return x.h0(), x.h1()


class KInvariant:
    """The quadratic attaching map of a level-n model, with certificate."""

    def __init__(self, map_: AbMap, certificate: dict):
        self.map = map_
        self.certificate = certificate

    def is_isomorphism(self) -> bool:
        return self.map.is_isomorphism()

    def is_zero(self) -> bool:
        return self.map.is_zero()


def k_invariant(x) -> KInvariant:
    """The unique map from the level quadratic functor of h0 into h1.

    Generators of the quadratic functor of h0 are lifted through the
    projection, pushed through the tensor inclusion and the pairing, and
    read off in kernel coordinates.  Well-definedness of the lift choice is
    certified: every kernel generator of the lifted functor map must land on
    zero.  Construction fails loudly if h0 is not abelian.  The quadratic
    functor of the coordinate group is built once, by `level_gamma`, and
    the functor map starts from that group.  The abelianized projection
    and the k-invariant are built unchecked;
    `tests/test_models.py::test_k_invariant_maps_are_well_defined` holds
    them to their checks.
    """
    n = x.level
    if n < 2:
        raise ValueError("the quadratic attaching map needs level >= 2")
    coker, proj = hom_cokernel(x.bnd)
    if not coker.is_abelian():
        raise ValueError("h0 is not abelian; no quadratic functor applies")
    h_ab = coker.underlying_ab()
    kern, kincl = hom_kernel(x.bnd)
    if not kern.is_abelian():
        raise ValueError("h1 is not abelian")
    h1_ab = kern.underlying_ab()
    coords = x.coords
    # the projection on abelianized coordinates, which must be the Q layer
    if len(coords.basis) > x.base.q.ngens:
        raise NotImplementedError("k-invariant needs commutator-spanned "
                                  "central layer in the base")
    cols = [list(img.qvec) + list(img.cvec)
            for img in (proj.eval(b) for b in coords.basis)]
    qmatrix = la.transpose(cols, h_ab.ngens)
    # the level tensor square keeps the plain basis the pairing reads
    src_group, inc = level_gamma(n, coords.group)
    gq = level_gamma_map(n, AbMap(coords.group, h_ab, qmatrix, check=False),
                         src_group)
    gamma_h = gq.target

    def push(vec) -> list[int]:
        tvec = la.mat_vec(inc.matrix, vec)
        elem = x.omega.eval_vec(tvec)
        if not x.bnd.eval(elem).is_identity():
            raise ValueError("pairing image escapes the kernel")
        return _subgroup_coords(elem, kincl)

    cert = {"kernel_generators_vanish": True}
    kgrp, kin = gq.kernel()
    for j in range(kgrp.ngens):
        vec = [kin.matrix[r][j] for r in range(src_group.ngens)]
        coords_j = push(vec)
        if not h1_ab.element(coords_j).is_zero():
            cert["kernel_generators_vanish"] = False
    cols = []
    for j in range(gamma_h.ngens):
        ej = [0] * gamma_h.ngens
        ej[j] = 1
        lift = gq.preimage(ej)
        if lift is None:
            raise ValueError("quadratic functor map is not surjective")
        cols.append(push(lift.vec))
    kmap = AbMap(gamma_h, h1_ab, la.transpose(cols, h1_ab.ngens), check=False)
    return KInvariant(kmap, cert)


def suspension_comparison(points: PointedSet):
    """Stabilize the level-2 wedge model and compare with the level-3 one.

    Returns (morphism, is_weak_equivalence).
    """
    from .functors import ad3
    from .crossed import CrossMorphism
    from .nil2 import identity_hom

    w2 = wedge_model(2, points)
    w3 = wedge_model(3, points)
    stab, stab_proj = ad3(w2)
    # canonical comparison: identity on the base, tensor classes match up
    f1 = hom_from_values(stab.m, w3.m,
                         [w3.m.generator(p) for p in range(stab.m.q.ngens)]
                         + [w3.m.identity()] * stab.m.c.ngens)
    f0 = identity_hom(w3.n)
    morphism = CrossMorphism(stab, w3, f1, f0)
    return morphism, morphism.is_weak_equivalence()
