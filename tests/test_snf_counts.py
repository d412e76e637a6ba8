"""How many Smith normal forms the lattice questions run.

Calls to `intlinalg.smith_normal_form` are counted, as
`tests/test_check_sites.py` counts checks, so that an SNF run again where
its answer is already held fails here and not only in a benchmark: a group
without relations, and any system with no nonzero entry, runs none,
injectivity at most one past the certificates its groups hold, exactness
at most two, the spans test of `AbCoords` one, and `six_term` after
`fiber` on the crit-5 morphisms no more than measured once kernel
questions read held kernel bases.
"""

import random

import pytest

from secgroups import intlinalg as la
from secgroups.abelian import AbMap, FinAbGroup, exact
from secgroups.crossed import AbCoords
from secgroups.functors import fiber, six_term
from secgroups.models import wedge_model
from secgroups.nil2 import free_nil
from secgroups.selftest import (_induced_wedge_morphism, _points,
                                _random_quotient_wedge)


@pytest.fixture
def snf_calls(monkeypatch):
    """A one-entry list: the SNF calls from here on, settable to 0."""
    count = [0]
    real = la.smith_normal_form

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", counting)
    return count


def test_a_group_without_relations_runs_no_snf(snf_calls):
    for n in range(5):
        g = FinAbGroup(n)
        assert g.free_rank == n
        assert g.contains_in_lattice([0] * n)
        assert g.lattice.divide(2, [2] * n) == [1] * n
    assert snf_calls[0] == 0


def test_a_system_with_no_nonzero_entry_runs_no_snf(snf_calls):
    """Zero maps into groups whose relations are all zero, and membership
    in the span of zero rows, hold the identity certificate."""
    for nt in range(4):
        for ns in range(3):
            tgt = FinAbGroup(nt, [[0] * nt] * (nt % 2))
            f = AbMap(FinAbGroup(ns), tgt, la.zeros(nt, ns))
            assert f.preimage([0] * nt).vec == [0] * ns
            assert (f.preimage([1] * nt) is None) == (nt > 0)
            assert la.in_lattice([[0] * nt] * 2, nt, [1] * nt) == (nt == 0)
    assert snf_calls[0] == 0


def _maps(rng):
    """Random well-defined maps between small groups: the source
    relations are combinations of the preimage of the target's."""
    for _ in range(40):
        nt, ns = rng.randint(0, 3), rng.randint(0, 3)
        tgt = FinAbGroup(nt, [[rng.randint(-3, 3) for _ in range(nt)]
                              for _ in range(rng.randint(0, 2))])
        a = [[rng.randint(-2, 2) for _ in range(ns)] for _ in range(nt)]
        pre = tgt.lattice.preimage(a, ns)
        rels = [la.mat_vec(la.transpose(pre, ns),
                           [rng.randint(-2, 2) for _ in pre])
                for _ in range(rng.randint(0, 2))] if pre else []
        yield AbMap(FinAbGroup(ns, rels), tgt, a)


def test_is_injective_runs_at_most_one_snf(snf_calls):
    """One kernel basis read off the target's certificate; a second call
    reads it held."""
    for f in _maps(random.Random(0)):
        snf_calls[0] = 0
        first = f.is_injective()
        assert snf_calls[0] <= 1
        assert f.is_injective() == first
        assert snf_calls[0] <= 1


def test_exact_runs_at_most_two_snfs(snf_calls):
    """f_out's kernel basis and f_in's solver, each at most once."""
    maps = list(_maps(random.Random(1)))
    pairs = [(f, g) for f in maps for g in maps
             if f.target.same_presentation(g.source)]
    assert len(pairs) > 40
    for f_in, f_out in pairs:
        f_in = AbMap(f_in.source, f_in.target, f_in.matrix)
        f_out = AbMap(f_out.source, f_out.target, f_out.matrix)
        snf_calls[0] = 0
        exact(f_in, f_out)
        assert snf_calls[0] <= 2


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ab_coords_spans_test_runs_one_snf(k, snf_calls):
    """Whether the commutators and C relations span the central layer of
    a free class-2 group is one solver over those rows; the row basis
    taken first was a second SNF."""
    g = free_nil(_points(k))
    snf_calls[0] = 0
    assert AbCoords(g).group.ngens == g.q.ngens
    assert snf_calls[0] == 1


# SNF calls of six_term after fiber on the morphism of each seed, as
# measured once kernel questions read held kernel bases
SIX_TERM_SNFS = {0: 64, 1: 55, 2: 45, 3: 55, 4: 58, 5: 65}


@pytest.mark.parametrize("seed", sorted(SIX_TERM_SNFS))
def test_six_term_after_fiber_runs_no_more_snfs_than_measured(seed,
                                                              snf_calls):
    rng = random.Random(seed)
    x = wedge_model(2, _points(rng.randint(1, 2)))
    y = _random_quotient_wedge(rng, 2, _points(rng.randint(1, 2)))
    f = _induced_wedge_morphism(rng, x, y)
    fiber(f)
    snf_calls[0] = 0
    assert six_term(f)["exact"]
    assert snf_calls[0] <= SIX_TERM_SNFS[seed]
