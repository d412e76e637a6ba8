"""Sphere-wedge models and their invariants."""

import pytest

from secgroups import models
from secgroups.words import PointedSet
from secgroups.abelian import AbMap, FinAbGroup
from secgroups.models import (
    abelian_as_class2, wedge_model, homotopy_groups, k_invariant,
    suspension_comparison,
)
from secgroups.crossed import (AbCoords, OmegaPairing, check_axioms,
                               quadratic_module)
from secgroups.nil2 import trivial_hom
from secgroups.selftest import omega_zero_module


def test_abelian_as_class2():
    g = abelian_as_class2(FinAbGroup(1, [[4]]), ["t"])
    assert g.is_abelian()
    assert g.order() == 4


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (2, 3), (2, 4),
                                  (3, 1), (3, 2), (3, 3)])
def test_wedge_pairings_pass_their_check(n, k):
    """`wedge_model` builds its pairing unchecked, the identity pairing of
    the free group's tensor square at level 2 and the stable one above;
    each passes the check it skips."""
    w = wedge_model(n, PointedSet([chr(97 + i) for i in range(k)]))
    w.omega.validate()


def test_wedge_model_level1_h0():
    w = wedge_model(1, PointedSet(["a", "b"]))
    # no relations: h0 is the free group itself, h1 vanishes
    assert w.h1().is_trivial()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_homotopy_groups_level2(k):
    points = PointedSet([chr(97 + i) for i in range(k)])
    w = wedge_model(2, points)
    h0, h1 = homotopy_groups(w)
    assert h0.abelianization().free_rank == k
    # h1 of a level-2 wedge is the Whitehead quadratic group, free of
    # rank k(k+1)/2
    assert h1.free_rank == k * (k + 1) // 2
    assert not h1.invariant_factors


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_homotopy_groups_level3(k):
    points = PointedSet([chr(97 + i) for i in range(k)])
    w = wedge_model(3, points)
    h0, h1 = homotopy_groups(w)
    assert h0.abelianization().free_rank == k
    # stable range: h1 is the mod-2 reduction, (Z/2)^k
    assert h1.free_rank == 0
    assert h1.invariant_factors == tuple([2] * k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k_invariant_of_wedge_is_iso(n):
    w = wedge_model(n, PointedSet(["a", "b"]))
    ki = k_invariant(w)
    assert ki.is_isomorphism()
    assert ki.certificate["kernel_generators_vanish"]


def test_level2_k_invariant_of_a_six_letter_wedge_is_iso():
    # the quadratic functor here has 231 generators, one preimage each:
    # the size where those solves, summed over zeros, took seconds
    w = wedge_model(2, PointedSet([chr(97 + i) for i in range(6)]))
    ki = k_invariant(w)
    assert ki.is_isomorphism()
    assert ki.certificate["kernel_generators_vanish"]


def test_k_invariant_zero_pairing():
    x = omega_zero_module()
    assert k_invariant(x).is_zero()


def _cyclic_pairing_module(n, a, b, c):
    """The level-n module with base Z/a, M = Z/b, trivial boundary and
    omega(e (x) e) = c: h0 = Z/a and h1 = Z/b, so the quadratic functor
    of h0 and the k-invariant's target both have relations.  Valid when
    b divides a*c, and at level 3 and up 2c as well."""
    base = abelian_as_class2(FinAbGroup(1, [[a]]))
    m = abelian_as_class2(FinAbGroup(1, [[b]]))
    omega = OmegaPairing(AbCoords(base), m, [m.element([c])])
    return quadratic_module(m, base, trivial_hom(m, base), omega, n)


def _well_defined(m: AbMap):
    """The check an `AbMap` built unchecked skipped: every source relation
    lands in the target's relation lattice."""
    AbMap(m.source, m.target, m.matrix)


def test_k_invariant_maps_are_well_defined(monkeypatch):
    """`k_invariant` builds the abelianized projection of h0 and the
    k-invariant unchecked; on wedges and on modules over cyclic bases each
    sends every source relation into the target's lattice.  The
    projection is read off the call to `level_gamma_map`."""
    projections = []
    level_gamma_map = models.level_gamma_map

    def recording(n, f, source):
        projections.append(f)
        return level_gamma_map(n, f, source)

    monkeypatch.setattr(models, "level_gamma_map", recording)
    xs = [wedge_model(n, PointedSet(["a", "b"])) for n in (2, 3)]
    xs += [_cyclic_pairing_module(2, a, b, c)
           for a, b, c in ((2, 4, 2), (4, 8, 2), (6, 4, 2), (3, 9, 3))]
    xs += [_cyclic_pairing_module(3, a, 2, 1) for a in (2, 4)]
    kmaps = []
    for x in xs:
        assert check_axioms(x) == []
        ki = k_invariant(x)
        assert ki.certificate["kernel_generators_vanish"]
        kmaps.append(ki.map)
        for m in (projections[-1], ki.map):
            _well_defined(m)
    assert all(any(m.source.relations for m in maps)
               for maps in (projections, kmaps))


def test_k_invariant_rejects_level1():
    w = wedge_model(1, PointedSet(["a"]))
    with pytest.raises(ValueError):
        k_invariant(w)


@pytest.mark.parametrize("k", [1, 2])
def test_suspension_comparison(k):
    points = PointedSet([chr(97 + i) for i in range(k)])
    morphism, is_we = suspension_comparison(points)
    assert is_we
    morphism.validate()


def test_wedge_models_satisfy_axioms():
    for n in (1, 2, 3, 4):
        w = wedge_model(n, PointedSet(["a", "b"]))
        assert check_axioms(w) == []
