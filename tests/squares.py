"""Squares of 2-morphisms shared by the track and check-site tests: the
wedge square of `selftest.crit_4`, and a module whose 2-morphisms carry
nontrivial W_ij, with interchange squares into it."""

from secgroups import intlinalg as la
from secgroups.abelian import AbMap, FinAbGroup
from secgroups.crossed import (AbCoords, CrossMorphism, OmegaPairing,
                               quadratic_module)
from secgroups.models import wedge_model
from secgroups.nil2 import Class2Hom, abelian_as_class2, free_nil
from secgroups.selftest import (_induced_wedge_morphism, _points,
                                _rand_group_elem, _rand_m_elem)
from secgroups.tracks import TwoMorphism
from secgroups.words import PointedSet


def heisenberg_morphism(rng, x):
    """A random morphism from the level-n wedge x into a level-n module
    whose boundary has no central image, so the W_ij of the closed form
    are not trivial, as they are into a wedge.  M is the free class-2
    group on m1, m2 with c = [m1, m2], the base is Z^2 on n1, n2, the
    boundary sends m_i to n_i, omega(n1 (x) n2) = c = omega(n2 (x) n1)^-1
    and the other two images are trivial.  f1 is forced on the pairing
    images that generate the M of x."""
    n = abelian_as_class2(FinAbGroup(2), ["n1", "n2"])
    m = free_nil(PointedSet(["*", "m1", "m2"]))
    c = m.generator(0).commutator(m.generator(1))
    bnd = Class2Hom(m, n, [n.generator(0), n.generator(1)],
                    AbMap(m.c, n.c, la.zeros(0, 1), check=False))
    omega = OmegaPairing(AbCoords(n), m,
                         [m.identity(), c, c.inverse(), m.identity()])
    y = quadratic_module(m, n, bnd, omega, x.level)
    assert not y.check_axioms()
    k = x.base.q.ngens
    f0 = x.base.free_hom(n, [n.element([rng.randint(-2, 2),
                                        rng.randint(-2, 2)])
                             for _ in range(k)])
    fe = [y.coords.of(f0.eval(x.base.generator(a))) for a in range(k)]
    f1 = Class2Hom(x.m, m, [omega.pair(fe[p // k], fe[p % k])
                            for p in range(x.m.q.ngens)],
                   AbMap(x.m.c, m.c, la.zeros(1, 0), check=False))
    return CrossMorphism(x, y, f1, f0)


def heisenberg_values(rng, y, count):
    """count random values in the M of the module of `heisenberg_morphism`,
    with random central parts."""
    return [_rand_group_elem(rng, y.m) * y.m.central_generator(0)
            ** rng.randint(-2, 2) for _ in range(count)]


def wedge_square(rng):
    """(alpha, alpha2) drawn unchecked as `selftest.crit_4` and perfbench's
    quad_square draw them: x -> y -> z on level-2 wedges on 2, 1 and 1
    letters.  Every W_ij of these is trivial."""
    x = wedge_model(2, _points(2))
    y = wedge_model(2, _points(1))
    z = wedge_model(2, _points(1))
    f = _induced_wedge_morphism(rng, x, y)
    alpha = TwoMorphism(f, [_rand_m_elem(rng, y)
                            for _ in range(x.n.q.ngens)], check=False)
    fp = _induced_wedge_morphism(rng, y, z)
    alpha2 = TwoMorphism(fp, [_rand_m_elem(rng, z)
                              for _ in range(y.n.q.ngens)], check=False)
    return alpha, alpha2


def heisenberg_square(rng, n):
    """(alpha, alpha2) drawn unchecked on x -> y -> z at level n: x and y
    wedges on 1-3 and 1-2 letters, z the module of `heisenberg_morphism`,
    so the composites of the square carry nontrivial W_ij."""
    x = wedge_model(n, _points(rng.randint(1, 3)))
    y = wedge_model(n, _points(rng.randint(1, 2)))
    f = _induced_wedge_morphism(rng, x, y)
    alpha = TwoMorphism(f, [_rand_m_elem(rng, y)
                            for _ in range(x.n.q.ngens)], check=False)
    fp = heisenberg_morphism(rng, y)
    alpha2 = TwoMorphism(fp, heisenberg_values(rng, fp.tgt, y.n.q.ngens),
                         check=False)
    return alpha, alpha2
