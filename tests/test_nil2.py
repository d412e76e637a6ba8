"""Class-2 nilpotent groups: group law, homs, kernels, quotients."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from secgroups import intlinalg as la
from secgroups.words import PointedSet, Word
from secgroups.abelian import (AbMap, FinAbGroup, exact, identity_map,
                               tensor_square, tensor_square_relations,
                               zero_map)
from secgroups.crossed import (AbCoords, FreeBaseHom, FreeGroupBase,
                               OmegaPairing)
from secgroups.models import wedge_model
from secgroups.nil2 import (
    Class2Group, Class2Hom, QuotientError, Subgroup, abelian_as_class2,
    free_nil, nilize, hom_from_values, hom_from_words,
    hom_kernel, hom_cokernel, identity_hom, trivial_hom, product_group,
    kernel_generators, boundary_map, level_tensor_square, level_gamma, exact_sequence_report,
    pair_support, _binom2, _kernel_lifts, _nonzero_terms, _pairing,
    _projection_twist,
)
from secgroups.selftest import oracle_element, _random_word


POINTS = PointedSet(["a", "b", "c"])


def test_free_nil_shape():
    g = free_nil(POINTS)
    assert g.q.free_rank == 3
    assert g.c.free_rank == 3  # one commutator per unordered pair
    assert set(g.wedge_index) == {(0, 1), (0, 2), (1, 2)}


def test_group_axioms_fuzz():
    g = free_nil(POINTS)
    rng = random.Random(0)
    elems = [nilize(_random_word(rng, POINTS.nonbase(), 5), g)
             for _ in range(30)]
    e = g.identity()
    for i in range(0, 30, 3):
        x, y, z = elems[i], elems[i + 1], elems[i + 2]
        assert (x * y) * z == x * (y * z)
        assert x * e == x and e * x == x
        assert (x * x.inverse()).is_identity()
        assert x ** 3 == x * x * x
        assert x ** -2 == (x.inverse()) ** 2


def test_commutators_are_central():
    g = free_nil(POINTS)
    rng = random.Random(1)
    for _ in range(20):
        x = nilize(_random_word(rng, POINTS.nonbase(), 4), g)
        y = nilize(_random_word(rng, POINTS.nonbase(), 4), g)
        c = x.commutator(y)
        assert c.is_central()
        z = nilize(_random_word(rng, POINTS.nonbase(), 4), g)
        assert c * z == z * c


def test_nilize_matches_transposition_oracle():
    g = free_nil(POINTS)
    rng = random.Random(2)
    for _ in range(200):
        w = _random_word(rng, POINTS.nonbase(), 7)
        assert nilize(w, g) == oracle_element(w, g)


def _former_letters(g: Class2Group, elem):
    """The body `Class2Group.letters` had before it held a solver: a fresh
    solve on every call."""
    out = [(i, a) for i, a in enumerate(elem.qvec) if a]
    resid = la.vec_sub(elem.cvec, g.collect_central(elem.qvec))
    if any(resid):
        nq = g.q.ngens
        coeffs = la.solve_mod(g.lam, nq ** 2, resid, g.c.relations)
        if coeffs is None:
            raise ValueError("central base element outside commutators")
        for p, a in enumerate(coeffs):
            if a:
                i, j = divmod(p, nq)
                seq = [(i, -1), (j, -1), (i, 1), (j, 1)]
                for _ in range(abs(a)):
                    out.extend(seq if a > 0 else
                               [(s, -e) for s, e in reversed(seq)])
    return out


def _spelled(g: Class2Group, elem) -> Word:
    return Word([(g.gen_names[i], e) for i, e in g.letters(elem)])


def _letters_or_error(spell, g, elem):
    try:
        return spell(g, elem)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_letters_of_free_groups_match_a_fresh_solve(k):
    g = free_nil(PointedSet(list("abcd"[:k])))
    rng = random.Random(30 + k)
    for _ in range(300):
        x = g.element([rng.randint(-4, 4) for _ in range(k)],
                      [rng.randint(-4, 4) for _ in range(g.c.ngens)])
        assert g.letters(x) == _former_letters(g, x)
        assert nilize(_spelled(g, x), g) == x


def _random_free_quotients(rng):
    """Quotients of free class-2 groups on 2 and 3 letters by the normal
    closure of random elements: groups with Q and C relations that are not
    free, with the commutators still spanning C."""
    out = []
    for k in (2, 3):
        g = free_nil(PointedSet(list("abc"[:k])))
        found = 0
        while found < 5:
            gens = [g.element([rng.randint(-3, 3) for _ in range(k)],
                              [rng.randint(-3, 3) for _ in range(g.c.ngens)])
                    for _ in range(rng.randint(1, 2))]
            try:
                quot, _ = Subgroup(g, gens, normal=True).quotient()
            except QuotientError:
                continue
            if quot.q.relations and quot.c.relations:
                out.append(quot)
                found += 1
    return out


def test_letters_of_quotients_match_a_fresh_solve_and_spell_the_element():
    rng = random.Random(34)
    for g in _random_free_quotients(rng):
        assert g.wedge_index is None
        for _ in range(20):
            x = g.element([rng.randint(-4, 4) for _ in range(g.q.ngens)],
                          [rng.randint(-4, 4) for _ in range(g.c.ngens)])
            assert g.letters(x) == _former_letters(g, x)
            assert nilize(_spelled(g, x), g) == x


def _random_closures(rng, ambients, per_group):
    """Normal closures of one or two random elements (entries -3..3) in
    each ambient group, per_group of them."""
    for g in ambients:
        for _ in range(per_group):
            gens = [g.element([rng.randint(-3, 3) for _ in range(g.q.ngens)],
                              [rng.randint(-3, 3) for _ in range(g.c.ngens)])
                    for _ in range(rng.randint(1, 2))]
            yield Subgroup(g, gens, normal=True)


def _former_quotient(sub: Subgroup):
    """The former `Subgroup.quotient`: the quotient group under the full
    `Class2Group` check, and the projection checked and tested on every
    generator; or the error it raised."""
    g = sub.group
    nq, nc = g.q.ngens, g.c.ngens
    qq = FinAbGroup(nq, g.q.relations + sub.q_rows)
    cq = FinAbGroup(nc, list(sub.c_rows))
    try:
        quot = Class2Group(qq, cq, g.beta, gen_names=g.gen_names)
    except ValueError as exc:
        return "cocycle does not descend: %s" % exc
    t = _projection_twist([e.qvec for e in sub.gens],
                          [e.cvec for e in sub.gens], nq, cq)
    if t is None:
        return ("projection twist has no solution; quotient cocycle fails "
                "to descend")
    try:
        proj = Class2Hom(g, quot, [quot.element(
            [int(i == j) for j in range(nq)], [t[r][i] for r in range(nc)])
            for i in range(nq)], AbMap(g.c, cq, la.identity(nc), check=False))
    except ValueError as exc:
        return "projection is not a hom: %s" % exc
    assert all(proj.eval(e).is_identity() for e in sub.gens)
    return quot, proj


def _quotient_or_error(sub: Subgroup):
    try:
        return sub.quotient()
    except QuotientError as exc:
        return str(exc)


def _raw_quotient(answer):
    if isinstance(answer, str):
        return answer
    quot, proj = answer
    return (quot.q.relations, quot.c.relations, quot.lam, quot.beta,
            quot.gen_names, [_raw(x) for x in proj.gen_images],
            proj.cmap.matrix)


def test_quotient_refuses_where_the_full_check_refused():
    """`Subgroup.quotient` builds its group and projection unchecked, and
    tests descent through the new Q rows alone and its projection only on
    the ambient group's Q relations.  On normal closures in free class-2
    groups and in quotients of them it refuses exactly where the full
    checks refused, and otherwise returns the same group and projection,
    which pass their checks, and the projection sends every generator of
    the subgroup to 1.  A descent refusal keeps its message; a projection
    that breaks an ambient relation, which the projection's check refused
    as "hom disagrees on relation representatives", is a `QuotientError`
    that names the relation.  All three outcomes occur.

    Mutations this catches: no descent test at all (a refusal is
    answered), descent through the ambient relations alone, and no test
    of the projection on the ambient relations."""
    rng = random.Random(2601)
    ambients = [free_nil(PointedSet(list("abc"[:k]))) for k in (1, 2, 3)]
    ambients += _random_free_quotients(rng)[::2]
    seen = {"answered": 0, "descent": 0, "relation": 0}
    for sub in _random_closures(rng, ambients, 12):
        answer = _quotient_or_error(sub)
        got = _raw_quotient(answer)
        want = _raw_quotient(_former_quotient(sub))
        if want == ("projection is not a hom: hom disagrees on relation "
                    "representatives"):
            assert got.startswith("projection twist breaks the relation ")
            seen["relation"] += 1
            continue
        assert got == want
        if isinstance(answer, str):
            seen["descent"] += 1
            continue
        quot, proj = answer
        quot._validate()
        proj.validate()
        assert all(proj.eval(e).is_identity() for e in sub.gens)
        seen["answered"] += 1
    assert seen["answered"] >= 10 and seen["descent"] >= 10, seen
    assert seen["relation"], seen


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_letters_match_a_fresh_solve_on_unchecked_groups(data):
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    nq = g.q.ngens
    # several elements per group, so the held solver answers more than once
    for x in _elements(data.draw, g, 3):
        # the solution vector is not reduced, and on these groups the sum
        # of its entries passes 10^7: spell only words of at most 4000
        # letters
        resid = la.vec_sub(x.cvec, g.collect_central(x.qvec))
        coeffs = la.solve_mod(g.lam, nq ** 2, resid, g.c.relations)
        if coeffs and sum(map(abs, coeffs)) > 1000:
            continue
        assert _letters_or_error(Class2Group.letters, g, x) == \
            _letters_or_error(_former_letters, g, x)


def test_letters_refuse_a_residue_outside_the_commutators():
    g = Class2Group(FinAbGroup(1), FinAbGroup(1), [[0]])
    x = g.central([1])
    with pytest.raises(ValueError, match="outside commutators"):
        g.letters(x)
    assert _letters_or_error(Class2Group.letters, g, x) == \
        _letters_or_error(_former_letters, g, x)
    assert g.letters(g.generator(0) ** 3) == [(0, 3)]


def test_hom_from_words_respects_multiplication():
    g = free_nil(POINTS)
    words = {"a": Word.parse("b a"), "b": Word.parse("a^-1"),
             "c": Word.parse("c b^2")}
    f = hom_from_words(g, g, words)
    f.validate()
    rng = random.Random(4)
    for _ in range(40):
        x = nilize(_random_word(rng, POINTS.nonbase(), 4), g)
        y = nilize(_random_word(rng, POINTS.nonbase(), 4), g)
        assert f.eval(x * y) == f.eval(x) * f.eval(y)


def test_identity_and_trivial_homs():
    g = free_nil(POINTS)
    i = identity_hom(g)
    t = trivial_hom(g, g)
    x = g.generator(0) * g.generator(1)
    assert i.eval(x) == x
    assert t.eval(x).is_identity()
    assert i.compose(i) == i


def test_kernel_of_collapse_hom():
    # send b -> a, c -> 1; kernel of the q-layer is rank 2
    g = free_nil(POINTS)
    h = free_nil(PointedSet(["a"]))
    f = hom_from_words(g, h, {"a": Word.parse("a"), "b": Word.parse("a"),
                              "c": Word()})
    k, incl = hom_kernel(f)
    for gen in k.generators():
        assert f.eval(incl.eval(gen)).is_identity()
    assert k.abelianization().free_rank >= 2


def test_kernel_and_cokernel_are_held_on_the_hom():
    g = free_nil(POINTS)
    h = free_nil(PointedSet(["a"]))
    words = {"a": Word.parse("a"), "b": Word.parse("a^2"), "c": Word()}
    f = hom_from_words(g, h, words)
    assert hom_kernel(f) is hom_kernel(f)
    assert hom_cokernel(f) is hom_cokernel(f)
    # held per hom: an equal hom builds its own pair
    assert hom_kernel(hom_from_words(g, h, words)) is not hom_kernel(f)


def test_cokernel_of_doubling():
    g = free_nil(PointedSet(["a"]))
    f = hom_from_words(g, g, {"a": Word.parse("a^2")})
    cok, proj = hom_cokernel(f)
    assert cok.order() == 2
    assert proj.eval(g.generator(0) ** 2).is_identity()


def test_subgroup_quotient():
    g = free_nil(PointedSet(["a", "b"]))
    sub = Subgroup(g, [g.generator(0) ** 2], normal=True)
    q, proj = sub.quotient()
    assert proj.eval(g.generator(0) ** 2).is_identity()
    assert not proj.eval(g.generator(0)).is_identity()


def test_validate_rejects_a_central_map_ill_defined_on_relations():
    s = Class2Group(FinAbGroup(1), FinAbGroup(1, [[2]]), [[0]])
    t = Class2Group(FinAbGroup(1), FinAbGroup(1), [[0]])
    cmap = AbMap(s.c, t.c, [[1]], check=False)
    with pytest.raises(ValueError, match="map not well defined"):
        Class2Hom(s, t, [t.generator(0)], cmap)
    # unchecked, it sends the identity (0, 2) of s to (0, 2), not the identity
    f = Class2Hom(s, t, [t.generator(0)], cmap, check=False)
    assert s.central([2]).is_identity()
    assert not f.eval(s.central([2])).is_identity()


def test_hom_from_values_takes_a_relation_vector_as_central():
    s = Class2Group(FinAbGroup(0), FinAbGroup(1), [[]])
    t = abelian_as_class2(FinAbGroup(1, [[2]]))
    f = hom_from_values(s, t, [t.element([2])])
    assert f.cmap.matrix == [] and f.eval(s.central_generator(0)).is_identity()
    with pytest.raises(ValueError, match="not central"):
        hom_from_values(s, t, [t.element([1])])


def _all_pairs_validate(f: Class2Hom):
    """The former `Class2Hom.validate`: the central-layer map on the C
    relations, then eval on every product of two generators, central ones
    included, then the relation representatives."""
    s = f.source
    for rel in s.c.relations:
        if not f.target.c.contains_in_lattice(la.mat_vec(f.cmap.matrix, rel)):
            raise ValueError("map not well defined: relation %r" % (rel,))
    gens = s.generators()
    imgs = [f.eval(x) for x in gens]
    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            if f.eval(x * y) != imgs[i] * imgs[j]:
                raise ValueError(
                    "not multiplicative on generators %d,%d" % (i, j))
    for r in s.q.relations:
        rep = s.element(r, s.collect_central(r))
        alt = s.central(s.collect_central(r))
        if f.eval(rep) != f.eval(alt):
            raise ValueError("hom disagrees on relation representatives")


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


@st.composite
def _unchecked_class2_groups(draw, max_nq=4, max_nc=3, entry=_SMALL):
    """Class2Group(check=False) with nq 0-max_nq, nc 0-max_nc, at most two
    Q and two C relations and small beta."""
    nq, nc = draw(st.integers(0, max_nq)), draw(st.integers(0, max_nc))
    q = FinAbGroup(nq, _matrix(draw, draw(st.integers(0, 2)), nq,
                               st.integers(-4, 4)))
    c = FinAbGroup(nc, _matrix(draw, draw(st.integers(0, 2)), nc,
                               st.integers(-4, 4)))
    return Class2Group(q, c, _matrix(draw, nc, nq * nq, entry), check=False)


def _dense(mat, qu, qv):
    """The cocycle as a dense matrix times the Kronecker product qu (x) qv:
    the evaluation the nonzero index replaced, kept as its oracle."""
    return la.mat_vec(mat, la.kron(qu, qv))


def _dense_collect_central(g: Class2Group, qvec):
    nq = g.q.ngens
    out = [0] * g.c.ngens
    prefix = [0] * nq
    for i, a in enumerate(qvec):
        ei = [int(k == i) for k in range(nq)]
        out = la.vec_add(out, la.vec_scale(a * (a - 1) // 2,
                                           _dense(g.beta, ei, ei)))
        out = la.vec_add(out, _dense(g.beta, prefix, la.vec_scale(a, ei)))
        prefix[i] += a
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cocycle_evaluation_matches_dense_oracle(data):
    g = data.draw(_unchecked_class2_groups(5, 4, st.integers(-3, 3)))
    nq, nc = g.q.ngens, g.c.ngens
    vec = st.integers(-5, 5)
    qx, qy = data.draw(_vectors(nq, vec)), data.draw(_vectors(nq, vec))
    cx, cy = data.draw(_vectors(nc, vec)), data.draw(_vectors(nc, vec))
    x, y = g.element(qx, cx), g.element(qy, cy)
    assert g.beta_eval(qx, qy) == _dense(g.beta, qx, qy)
    assert g.lam_eval(qx, qy) == _dense(g.lam, qx, qy)
    assert x.commutator(y).cvec == _dense(g.lam, qx, qy)
    xy = x * y
    assert (xy.qvec, xy.cvec) == (
        la.vec_add(qx, qy),
        la.vec_add(la.vec_add(cx, cy), _dense(g.beta, qx, qy)))
    inv = x.inverse()
    assert (inv.qvec, inv.cvec) == (
        [-a for a in qx], la.vec_add([-a for a in cx], _dense(g.beta, qx, qx)))
    a = data.draw(st.integers(-4, 4))
    power = x ** a
    assert (power.qvec, power.cvec) == (
        la.vec_scale(a, qx),
        la.vec_add(la.vec_scale(a, cx),
                   la.vec_scale(a * (a - 1) // 2, _dense(g.beta, qx, qx))))
    assert g.collect_central(qx) == _dense_collect_central(g, qx)


def _dense_lam(g: Class2Group):
    """beta - beta o swap entry by entry: the oracle of the derived lam."""
    nq = g.q.ngens
    return [[row[i * nq + j] - row[j * nq + i]
             for i in range(nq) for j in range(nq)] for row in g.beta]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_derived_pairing_matches_a_dense_oracle(data):
    """lam is derived from the nonzeros of beta; every reading of it
    agrees with beta - beta o swap taken entry by entry, and a commutator
    is the product x^-1 y^-1 x y."""
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    nq, lam = g.q.ngens, _dense_lam(g)
    assert g.lam == lam
    assert g._lam_terms == _nonzero_terms(lam, nq)
    cols = [[row[p] for row in lam] for p in range(nq * nq)]
    assert g.commutator_support() == {
        divmod(p, nq) for p, col in enumerate(cols) if any(col)}
    assert g.is_abelian() == all(map(g.c.contains_in_lattice, cols))
    elems = _elements(data.draw, g, 3) + g.generators()
    for x in elems:
        for y in elems:
            want = _dense(lam, x.qvec, y.qvec)
            assert g.lam_eval(x.qvec, y.qvec) == want
            assert _raw(x.commutator(y)) == ([0] * nq, want)
            assert x.commutator(y) == x.inverse() * y.inverse() * x * y
        assert x.is_central() == (g.q.contains_in_lattice(x.qvec) or all(
            g.c.contains_in_lattice(_dense(lam, x.qvec, e))
            for e in la.identity(nq)))


def test_the_former_positional_form_raises_type_error():
    """`Class2Group(q, c, lam, beta)` used to bind its fourth argument to
    lam; with beta the only cocycle, gen_names and check are keyword-only,
    so the old form cannot quietly read beta as the generator names."""
    q, c = FinAbGroup(2), FinAbGroup(1)
    with pytest.raises(TypeError):
        Class2Group(q, c, [[0, 1, -1, 0]], [[0, 1, 0, 0]])
    with pytest.raises(TypeError):
        Class2Group(q, c, [[0, 1, 0, 0]], ["a", "b"], False)
    g = Class2Group(q, c, [[0, 1, 0, 0]], gen_names=["a", "b"], check=False)
    assert g.lam == [[0, 1, -1, 0]] and g.gen_names == ["a", "b"]


@pytest.mark.parametrize("names, message", [
    (["a"], "1 generator names for 2 Q generators"),
    (["a", "b", "c"], "3 generator names for 2 Q generators"),
    ([], "0 generator names for 2 Q generators"),
    (["a", "a"], "repeated generator name 'a'"),
])
def test_bad_generator_names_are_refused(names, message):
    """Z^2 with the names ["a", "a"] used to be built, and `nilize` then
    read "a" as the second generator."""
    with pytest.raises(ValueError, match=message):
        abelian_as_class2(FinAbGroup(2), names)
    with pytest.raises(ValueError, match=message):
        Class2Group(FinAbGroup(2), FinAbGroup(1), [[0, 1, 0, 0]],
                    gen_names=names)


@pytest.mark.parametrize("count", [0, 2, 4, 6])
def test_hom_from_values_refuses_the_wrong_number_of_values(count):
    """free_nil on a, b has three generators; 2 values used to fail on the
    shape of a matrix and 6 on a value that is not central."""
    g = free_nil(PointedSet(["a", "b"]))
    values = (g.generators() * 2)[:count]
    with pytest.raises(ValueError, match="3 generators, %d values" % count):
        hom_from_values(g, g, values)
    assert hom_from_values(g, g, g.generators()) == identity_hom(g)


def _former_lam_of_free_nil(g: Class2Group):
    k = g.q.ngens
    lam = la.zeros(g.c.ngens, k * k)
    for (i, j), p in g.wedge_index.items():
        lam[p][i * k + j] = 1
        lam[p][j * k + i] = -1
    return lam


def _former_lam_of_product(g: Class2Group, h: Class2Group):
    """The lam `product_group` built: each factor's lam in its diagonal
    block."""
    nq, nc = g.q.ngens + h.q.ngens, g.c.ngens + h.c.ngens
    lam = la.zeros(nc, nq * nq)
    for x, off, off_c in ((g, 0, 0), (h, g.q.ngens, g.c.ngens)):
        n = x.q.ngens
        for r, row in enumerate(x.lam):
            for p, coeff in enumerate(row):
                i, j = divmod(p, n)
                lam[off_c + r][(off + i) * nq + off + j] = coeff
    return lam


@pytest.mark.parametrize("k", range(5))
def test_free_and_abelian_groups_keep_their_former_lam(k):
    g = free_nil(PointedSet(["a", "b", "c", "d"][:k]))
    assert g.lam == _former_lam_of_free_nil(g)
    assert abelian_as_class2(FinAbGroup(k)).lam == []


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_products_and_quotients_keep_their_former_lam(data):
    """`product_group` placed each factor's lam in its diagonal block, and
    `Subgroup.quotient` passed the ambient group's lam on; the derived lam
    has the same integers."""
    g = data.draw(_unchecked_class2_groups(3, 2))
    h = data.draw(st.sampled_from([
        data.draw(_unchecked_class2_groups(3, 2)),
        free_nil(PointedSet(["a", "b", "c"]))]))
    assert product_group(g, h)[0].lam == _former_lam_of_product(g, h)
    ambient = data.draw(st.sampled_from([g, free_nil(PointedSet(
        ["a", "b", "c"][:data.draw(st.integers(1, 3))]))]))
    sub = Subgroup(ambient, _elements(data.draw, ambient, 2), normal=True)
    try:
        quot, _ = sub.quotient()
    except QuotientError:
        return
    assert quot.lam == ambient.lam


def _replay(g: Class2Group, elems, exps):
    """The letter-by-letter product of powers that `power_product`
    replaced, kept as its oracle."""
    out = g.identity()
    for x, a in zip(elems, exps):
        if a:
            out = out * (x ** a)
    return out


def _raw(x):
    return x.qvec, x.cvec


_EXPS = st.integers(-5, 5)


def _elements(draw, g, count):
    return [g.element(draw(_vectors(g.q.ngens, _EXPS)),
                      draw(_vectors(g.c.ngens, _EXPS))) for _ in range(count)]


def _former_inverse(x):
    """`Class2Elem.inverse` before it read `power_product`, kept as its
    oracle."""
    g = x.group
    c = la.vec_add([-v for v in x.cvec], g.beta_eval(x.qvec, x.qvec))
    return [-v for v in x.qvec], c


def _former_pow(x, a):
    """`Class2Elem.__pow__` before it read `power_product`."""
    g = x.group
    c = la.vec_add(la.vec_scale(a, x.cvec), la.vec_scale(
        a * (a - 1) // 2, g.beta_eval(x.qvec, x.qvec)))
    return la.vec_scale(a, x.qvec), c


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_power_and_inverse_match_their_former_bodies(data):
    """Powers and inverses are `power_product` of one element, with the
    same raw integers as the closed forms they once wrote out, at every
    exponent from -6 to 6, 0 (the identity) and -1 (binom(-1, 2) = 1)
    among them."""
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    x = _elements(data.draw, g, 1)[0]
    assert _raw(x.inverse()) == _former_inverse(x)
    for a in range(-6, 7):
        assert _raw(x ** a) == _former_pow(x, a)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hom_from_values_matches_evaluation_on_generators(data):
    s = data.draw(_unchecked_class2_groups())
    t = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    cmap = AbMap(s.c, t.c, _matrix(data.draw, t.c.ngens, s.c.ngens, _EXPS),
                 check=False)
    f = Class2Hom(s, t, _elements(data.draw, t, s.q.ngens), cmap,
                  check=False)
    values = [f.eval(e) for e in s.generators()]
    assert [_raw(e) for e in f.values()] == [_raw(e) for e in values]
    g = hom_from_values(s, t, values, check=False)
    assert [_raw(e) for e in g.gen_images] == [_raw(e) for e in f.gen_images]
    assert g.cmap.matrix == f.cmap.matrix
    # a C generator's value whose Q part leaves the relation lattice
    qv = data.draw(_vectors(t.q.ngens, _EXPS))
    if s.c.ngens and not t.q.contains_in_lattice(qv):
        j = s.q.ngens + data.draw(st.integers(0, s.c.ngens - 1))
        values[j] = t.element(qv, values[j].cvec)
        with pytest.raises(ValueError, match="not central"):
            hom_from_values(s, t, values, check=False)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_power_product_matches_replay(data):
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    # factors drawn from a pool of at most three, so they repeat; the
    # list may be empty and its exponents zero
    pool = _elements(data.draw, g, data.draw(st.integers(1, 3)))
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))),
                               max_size=6))
    elems = [pool[i] for i in picks]
    exps = data.draw(_vectors(len(elems), _EXPS))
    assert _raw(g.power_product(elems, exps)) == _raw(_replay(g, elems, exps))
    # the generator case: the one-pass closed form of collect_central, on
    # a normal form and on one rich in zeros.  Mutations of the code this
    # catches: dropping the diagonal binom(q_i, 2) term, j >= i in place of
    # j > i, and summing the pairs j < i instead
    gens = [g.generator(i) for i in range(g.q.ngens)]
    for entry in (_EXPS, st.sampled_from([0, 0, 0, 1, -1, 5, -5])):
        qvec = data.draw(_vectors(g.q.ngens, entry))
        replay = _replay(g, gens, qvec)
        assert g.collect_central(qvec) == replay.cvec


def _former_power_product(g: Class2Group, elems, exps):
    """The former body of `Class2Group.power_product`, kept as its oracle:
    it walks every (element, exponent) pair and adds the prefix term from
    the first factor on.  The body now visits the nonzero exponents only
    and skips the pairings where beta has no terms; the raw integers must
    be the same."""
    beta = g._beta_terms
    prefix = [0] * g.q.ngens
    out = [0] * g.c.ngens
    for x, a in zip(elems, exps):
        if a:
            aq = [a * v for v in x.qvec]
            for r, v in enumerate(x.cvec):
                out[r] += a * v
            _pairing(beta, out, x.qvec, x.qvec, _binom2(a))
            _pairing(beta, out, prefix, aq)
            prefix = la.vec_add(prefix, aq)
    return prefix, out


# exponent entries mostly 0, as the library's are (84% on module
# invariants), with ±1, ±2 and larger among them
_SPARSE_EXPS = st.sampled_from([0] * 8 + [1, -1, 2, -2, 3, -7, 12])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_power_product_matches_its_former_body(data):
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    if data.draw(st.booleans()):
        # the same layers with beta and lam zero: an abelian group whose
        # beta has no terms, central layer and all
        zero = la.zeros(g.c.ngens, g.q.ngens ** 2)
        g = Class2Group(g.q, g.c, zero, check=False)
        assert not g._beta_terms
    pool = _elements(data.draw, g, data.draw(st.integers(1, 3)))
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))),
                               max_size=8))
    elems = [pool[i] for i in picks]
    exps = data.draw(_vectors(len(elems), data.draw(st.sampled_from(
        [_SPARSE_EXPS, _EXPS]))))
    assert _raw(g.power_product(elems, exps)) == \
        _former_power_product(g, elems, exps)


def test_power_product_refuses_mismatched_lengths():
    g = free_nil(POINTS)
    with pytest.raises(ValueError, match="1 elements, 2 exponents"):
        g.power_product([g.generator(0)], [1, 5])
    with pytest.raises(ValueError, match="2 elements, 1 exponents"):
        g.power_product([g.generator(0), g.generator(1)], [0])
    assert _raw(g.power_product([], [])) == _raw(g.identity())


def _former_hom_eval(f: Class2Hom, elem):
    t = f.target
    out = _replay(t, f.gen_images, elem.qvec)
    resid = la.vec_sub(elem.cvec, _dense_collect_central(f.source, elem.qvec))
    return out * t.central(la.mat_vec(f.cmap.matrix, resid))


def _former_nilize(word: Word, group: Class2Group):
    name_to_idx = {n: i for i, n in enumerate(group.gen_names)}
    out = group.identity()
    for sym, exp in word.letters:
        out = out * (group.generator(name_to_idx[sym]) ** exp)
    return out


def _former_free_base_eval(f: FreeBaseHom, word: Word):
    out = f.target.identity()
    for i, e in f.source.letters(word):
        out = out * (f.gen_images[i] ** e)
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_collecting_callers_match_their_former_bodies(data):
    s = data.draw(_unchecked_class2_groups())
    t = data.draw(_unchecked_class2_groups(entry=st.integers(-3, 3)))
    images = _elements(data.draw, t, s.q.ngens)
    cmap = AbMap(s.c, t.c, _matrix(data.draw, t.c.ngens, s.c.ngens),
                 check=False)
    f = Class2Hom(s, t, images, cmap, check=False)
    x = _elements(data.draw, s, 1)[0]
    assert _raw(f.eval(x)) == _raw(_former_hom_eval(f, x))

    if t.q.ngens:
        letters = st.tuples(st.sampled_from(t.gen_names), _EXPS)
        w = Word(data.draw(st.lists(letters, max_size=6)))
        assert _raw(nilize(w, t)) == _raw(_former_nilize(w, t))

    k = data.draw(st.integers(1, 2))
    base = FreeGroupBase(PointedSet(["a", "b"][:k]))
    h = FreeBaseHom(base, t, _elements(data.draw, t, k))
    w = Word(data.draw(st.lists(st.tuples(st.sampled_from(base.gen_names),
                                          _EXPS), max_size=6)))
    assert _raw(h.eval(w)) == _raw(_former_free_base_eval(h, w))

    omega = OmegaPairing(AbCoords(free_nil(base.points)), t,
                         _elements(data.draw, t, k * k), check=False)
    vec = data.draw(_vectors(k * k, _EXPS))
    assert _raw(omega.eval_vec(vec)) == _raw(
        _replay(t, omega.images, vec))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_validate_matches_all_pairs_oracle(data):
    s = data.draw(_unchecked_class2_groups())
    t = data.draw(_unchecked_class2_groups())
    nqt, nct = t.q.ngens, t.c.ngens
    images = [t.element(data.draw(_vectors(nqt)), data.draw(_vectors(nct)))
              for _ in range(s.q.ngens)]
    cmap = AbMap(s.c, t.c, _matrix(data.draw, nct, s.c.ngens), check=False)
    f = Class2Hom(s, t, images, cmap, check=False)
    assert _error(f.validate) == _error(lambda: _all_pairs_validate(f))


def _former_hom_validate(f: Class2Hom):
    """The former `Class2Hom.validate`: its commutation loop visits every
    pair i > j of Q generators."""
    s, t = f.source, f.target
    for rel in s.c.relations:
        if not t.c.contains_in_lattice(la.mat_vec(f.cmap.matrix, rel)):
            raise ValueError("map not well defined: relation %r" % (rel,))
    nq = s.q.ngens
    qs = [img.qvec for img in f.gen_images]
    for i in range(nq):
        for j in range(i):
            src = [row[i * nq + j] - row[j * nq + i] for row in s.beta]
            obstruction = la.vec_sub(
                la.vec_sub(t.beta_eval(qs[i], qs[j]),
                           t.beta_eval(qs[j], qs[i])),
                la.mat_vec(f.cmap.matrix, src))
            if not t.c.contains_in_lattice(obstruction):
                raise ValueError(
                    "not multiplicative on generators %d,%d" % (i, j))
    for r in s.q.relations:
        rep = s.element(r, s.collect_central(r))
        alt = s.central(s.collect_central(r))
        if f.eval(rep) != f.eval(alt):
            raise ValueError("hom disagrees on relation representatives")


def _perturbed(draw, t, images, cmap):
    """The images and central-layer map, with one image or one entry of
    the map moved, or neither."""
    images = list(images)
    kind = draw(st.sampled_from(["none", "image", "cmap"]))
    if kind == "image" and images:
        i = draw(st.integers(0, len(images) - 1))
        images[i] = t.element(
            la.vec_add(images[i].qvec, draw(_vectors(t.q.ngens))),
            la.vec_add(images[i].cvec, draw(_vectors(t.c.ngens))))
    elif kind == "cmap" and cmap.source.ngens and cmap.target.ngens:
        m = [row[:] for row in cmap.matrix]
        m[draw(st.integers(0, cmap.target.ngens - 1))][
            draw(st.integers(0, cmap.source.ngens - 1))] += draw(
                st.sampled_from([-1, 1]))
        cmap = AbMap(cmap.source, cmap.target, m, check=False)
    return images, cmap


@st.composite
def _homs_with_breaks(draw):
    """Class2Hom(check=False) with small entries: random data, or a free
    class-2 source on at most three letters with the central map its
    commutators force (a hom when the target is a group); then one image
    or one central-map entry perturbed, or none.  Larger entries and four
    letters reach the dense SNF's entry blow-up (ROADMAP item 6)."""
    t = draw(_unchecked_class2_groups())
    if draw(st.booleans()):
        s = draw(_unchecked_class2_groups())
        cmap = AbMap(s.c, t.c, _matrix(draw, t.c.ngens, s.c.ngens),
                     check=False)
    else:
        s = free_nil(PointedSet(["a", "b", "c"][:draw(st.integers(1, 3))]))
    images = [t.element(draw(_vectors(t.q.ngens)), draw(_vectors(t.c.ngens)))
              for _ in range(s.q.ngens)]
    if s.is_free():
        cmap = s.free_hom(t, images, check=False).cmap
    images, cmap = _perturbed(draw, t, images, cmap)
    return Class2Hom(s, t, images, cmap, check=False)


@given(_homs_with_breaks())
@settings(max_examples=400, deadline=None)
def test_hom_validate_matches_its_former_all_pairs_loop(f):
    """Checking commutation only on the pairs that can fail raises exactly
    when, and with the message that, the loop over every pair did."""
    assert _error(f.validate) == _error(lambda: _former_hom_validate(f))


def test_hom_validate_catches_a_perturbed_central_map():
    g = free_nil(PointedSet(["a", "b", "c"]))
    f = identity_hom(g)
    m = [row[:] for row in f.cmap.matrix]
    m[2][2] = 2  # b ^ c now goes to 2 (b ^ c)
    bad = Class2Hom(g, g, f.gen_images, AbMap(g.c, g.c, m, check=False),
                    check=False)
    assert _error(bad.validate) == _error(
        lambda: _former_hom_validate(bad)) == \
        "not multiplicative on generators 2,1"
    assert _error(f.validate) is None


def _former_omega_validate(omega: OmegaPairing):
    """The former `OmegaPairing.validate`: every pair of images tested for
    commutation."""
    qs = [x.qvec for x in omega.images]
    for i in range(len(qs)):
        for j in range(i):
            comm = la.vec_sub(omega.m.beta_eval(qs[i], qs[j]),
                              omega.m.beta_eval(qs[j], qs[i]))
            if not omega.m.c.contains_in_lattice(comm):
                raise ValueError("omega images do not commute")
    for rel in tensor_square_relations(omega.coords.group):
        if not omega.eval_vec(rel).is_identity():
            raise ValueError("omega not defined modulo relations")


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_omega_validate_matches_its_former_all_pairs_loop(data):
    """Images on a free class-2 base or an abelian one with relations;
    images sparse or all central, so that both checks are reached."""
    k = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        base = free_nil(PointedSet(["a", "b"][:k]))
    else:
        base = abelian_as_class2(FinAbGroup(k, _matrix(
            data.draw, data.draw(st.integers(0, 1)), k, st.integers(-3, 3))))
    coords = AbCoords(base)
    m = data.draw(_unchecked_class2_groups(entry=st.integers(-2, 2)))
    na = coords.group.ngens
    central = data.draw(st.booleans())
    images = [m.element([0] * m.q.ngens if central else
                        data.draw(_vectors(m.q.ngens)),
                        data.draw(_vectors(m.c.ngens)))
              for _ in range(na * na)]
    omega = OmegaPairing(coords, m, images, check=False)
    assert _error(omega.validate) == _error(
        lambda: _former_omega_validate(omega))


@st.composite
def _groups_past_the_pair_loop(draw):
    """Class2Group(check=False), whose derived lam passes the former pair
    loop, with random Q relations, so that the descent check decides;
    with a central layer killed by its relations in some."""
    nq, nc = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    q = FinAbGroup(nq, _matrix(draw, draw(st.integers(0, 2)), nq,
                               st.integers(-3, 3)))
    c_rels = la.identity(nc) if draw(st.booleans()) else _matrix(
        draw, draw(st.integers(0, 2)), nc, st.integers(-4, 4))
    return Class2Group(q, FinAbGroup(nc, c_rels),
                       _matrix(draw, nc, nq * nq, _SMALL), check=False)


@given(_groups_past_the_pair_loop())
@settings(max_examples=300, deadline=None)
def test_descent_check_matches_its_former_loop_over_every_generator(g):
    assert _error(g._validate) == _error(lambda: _former_validate(g))


def test_descent_check_catches_a_relation_the_cocycle_does_not_kill():
    """beta(e_0, e_1) = c with 2 e_0 = 0 in Q but c of infinite order."""
    q, c = FinAbGroup(2, [[2, 0]]), FinAbGroup(1)
    beta = [[0, 1, 0, 0]]
    with pytest.raises(ValueError, match="cocycle not defined modulo"):
        Class2Group(q, c, beta)
    assert _error(lambda: _former_validate(
        Class2Group(q, c, beta, check=False))) == \
        "cocycle not defined modulo relations"
    Class2Group(q, FinAbGroup(1, [[2]]), beta)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pair_support_is_where_a_term_meets_both_vectors(data):
    """pair_support is the set of (i, j) with a nonzero entry of the
    pairing matrix at (a, b), us[i][a] != 0 and vs[j][b] != 0; every pair
    outside it pairs to the zero vector."""
    g = data.draw(_unchecked_class2_groups(entry=st.integers(-2, 2)))
    nq = g.q.ngens
    us = [data.draw(_vectors(nq)) for _ in range(data.draw(
        st.integers(0, 3)))]
    vs = [data.draw(_vectors(nq)) for _ in range(data.draw(
        st.integers(0, 3)))]
    for mat in (g.beta, g.lam):
        terms = _nonzero_terms(mat, nq)
        cols = {divmod(p, nq) for row in mat for p, x in enumerate(row) if x}
        assert pair_support(terms, us, vs) == {
            (i, j) for i, u in enumerate(us) for j, v in enumerate(vs)
            if any(u[a] and v[b] for a, b in cols)}
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                if (i, j) not in pair_support(terms, us, vs):
                    assert not any(_dense(mat, u, v))


def _former_validate(g: Class2Group):
    """The former `Class2Group._validate`: its pair loop visits every pair
    (i, j)."""
    nq = g.q.ngens
    for i in range(nq):
        for j in range(nq):
            anti = [g.lam[r][i * nq + j] + g.lam[r][j * nq + i]
                    for r in range(g.c.ngens)]
            if not g.c.contains_in_lattice(anti):
                raise ValueError("lam not alternating at (%d,%d)" % (i, j))
            delta = [g.beta[r][i * nq + j] - g.beta[r][j * nq + i]
                     - g.lam[r][i * nq + j] for r in range(g.c.ngens)]
            if not g.c.contains_in_lattice(delta):
                raise ValueError("beta - beta o swap != lam at (%d,%d)"
                                 % (i, j))
    for rel in g.q.relations:
        for j in range(g.q.ngens):
            ej = [0] * g.q.ngens
            ej[j] = 1
            for u, v in ((rel, ej), (ej, rel)):
                if not g.c.contains_in_lattice(g.beta_eval(u, v)):
                    raise ValueError("cocycle not defined modulo relations")


def _former_is_abelian(g: Class2Group) -> bool:
    nq = g.q.ngens
    for i in range(nq):
        for j in range(nq):
            col = [g.lam[r][i * nq + j] for r in range(g.c.ngens)]
            if not g.c.contains_in_lattice(col):
                return False
    return True


def _former_is_central(x) -> bool:
    g = x.group
    if g.q.contains_in_lattice(x.qvec):
        return True
    for i in range(g.q.ngens):
        ei = [0] * g.q.ngens
        ei[i] = 1
        if not g.c.contains_in_lattice(g.lam_eval(x.qvec, ei)):
            return False
    return True


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_support_readings_match_their_former_bodies(data):
    """`is_central`, `is_abelian` and `_validate` read only the nonzero
    columns of lam and beta: same answers, and the same first message, as
    the all-pairs bodies they replaced."""
    g = data.draw(_unchecked_class2_groups())
    assert g.is_abelian() == _former_is_abelian(g)
    assert _error(g._validate) == _error(lambda: _former_validate(g))
    for x in _elements(data.draw, g, 3) + g.generators():
        assert x.is_central() == _former_is_central(x)


def _former_hom_kernel(f: Class2Hom):
    """The former `hom_kernel`, not held on f: every commutator of the
    kernel basis sent to central coordinates, zero ones included.  Its
    lattice steps are the library's preimages, read off the same held
    certificates, and its lifts are twisted by the library's
    `_projection_twist`, so the bases and lifts agree and the test pins
    the cocycle table.  Its relation step solves exactly, as the
    library's does, not modulo the source relations.  Its asserts raise
    explicitly, so their messages are not rewritten.  Its inclusion is
    built unchecked, as the library's is: on a hom that is not valid the
    former check refused, and `test_hom_kernel_matches_former_body` holds
    the inclusion of a valid hom to its check instead."""
    s, t = f.source, f.target
    nqs, ncs = s.q.ngens, s.c.ngens
    a = f.q_matrix()
    ckern, cincl = f.cmap.kernel()
    s_lat = t.q.lattice.preimage(a, nqs)
    zvals = [f.eval(s.element(u, s.collect_central(u))).cvec for u in s_lat]
    zker = f.cmap.solver().preimage(la.transpose(zvals, t.c.ngens),
                                    len(s_lat))
    s_mat = la.transpose(s_lat, nqs) if s_lat else la.zeros(nqs, 0)
    u_vectors = [la.mat_vec(s_mat, z) for z in zker]
    kelems = []
    for u in u_vectors:
        img = f.eval(s.element(u, s.collect_central(u)))
        cfix = f.cmap.preimage([-x for x in img.cvec])
        if cfix is None:
            raise AssertionError("killable defect has no lift")
        kelems.append(s.element(u, la.vec_add(s.collect_central(u),
                                              cfix.vec)))
    nk = len(kelems)
    u_mat = la.transpose(u_vectors, nqs) if u_vectors else la.zeros(nqs, 0)
    qk_rels = []
    if s.q.relations:
        solver = la.Lattice(u_mat, nk)  # exact: not modulo the relations
        for rel in s.q.relations:
            coeffs = solver.solve(rel)
            if coeffs is None:
                raise AssertionError("row outside the span of the columns")
            qk_rels.append(coeffs)
    lamk = la.zeros(ckern.ngens, nk * nk)
    betak = la.zeros(ckern.ngens, nk * nk)
    for i in range(nk):
        for j in range(nk):
            lc = cincl.preimage(s.lam_eval(kelems[i].qvec, kelems[j].qvec))
            if lc is None:
                raise AssertionError("central value outside kernel layer")
            for r in range(ckern.ngens):
                lamk[r][i * nk + j] = lc.vec[r]
                if i > j:
                    betak[r][i * nk + j] = lc.vec[r]
    kgroup = Class2Group(FinAbGroup(nk, qk_rels), ckern, betak, check=False)
    # the former table in place of the derived lam, so that the test
    # compares the two integer for integer
    kgroup.lam = lamk
    # the twist: x_1^r_1 ... x_nk^r_nk multiplied out letter by letter;
    # its central part less cincl(collect_k(r)) is cincl(w_r)
    ws = []
    for r in qk_rels:
        prod = s.identity()
        for x, e in zip(kelems, r):
            prod = prod * x ** e
        defect = la.vec_sub(prod.cvec, la.mat_vec(
            cincl.matrix, kgroup.collect_central(r)))
        if s.c.contains_in_lattice(defect):
            ws.append(None)
            continue
        w = cincl.preimage(defect)
        if w is None:
            raise QuotientError("relation defect of the kernel lifts lies "
                                "outside the kernel's central layer")
        ws.append(w.vec)
    if any(w is not None for w in ws):
        tw = _projection_twist(qk_rels, [w or [0] * ckern.ngens for w in ws],
                               nk, ckern)
        if tw is None:
            raise QuotientError("kernel lifts admit no central twist; the "
                                "kernel needs a cocycle term the "
                                "ordered-product cocycle drops")
        kelems = [x * s.central(la.mat_vec(cincl.matrix,
                                           [row[i] for row in tw]))
                  for i, x in enumerate(kelems)]
    return kgroup, Class2Hom(kgroup, s, kelems,
                             AbMap(ckern, s.c, cincl.matrix, check=False),
                             check=False)


def _kernel_entries(check):
    """The kernel's relations, cocycle matrices and inclusion, raw; or the
    error of a random hom whose kernel is not built."""
    try:
        k, incl = check()
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)
    return (k.q.relations, k.c.relations, k.lam, k.beta,
            [_raw(x) for x in incl.gen_images], incl.cmap.matrix)


def _draw_kernel_hom(data) -> Class2Hom:
    """A hom drawn by `_homs_with_breaks`, or random data between two
    `_unchecked_class2_groups`."""
    if data.draw(st.booleans()):
        return data.draw(_homs_with_breaks())
    s = data.draw(_unchecked_class2_groups())
    t = data.draw(_unchecked_class2_groups())
    images = _elements(data.draw, t, s.q.ngens)
    cmap = AbMap(s.c, t.c, _matrix(data.draw, t.c.ngens, s.c.ngens),
                 check=False)
    return Class2Hom(s, t, images, cmap, check=False)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hom_kernel_matches_former_body(data):
    """The former body filled the cocycle table over every pair and
    multiplied the twist's defects out letter by letter; the kernel's
    integers, or its error, are the same.  Homs out of free class-2 groups,
    whose commutators are nonzero, fill the table's entries.  Where the
    groups and the hom pass their checks, the inclusion, built unchecked,
    passes its check too."""
    f = _draw_kernel_hom(data)
    assert _kernel_entries(lambda: hom_kernel(f)) == _kernel_entries(
        lambda: _former_hom_kernel(f))
    if f._kernel is not None and not any(map(_error, (
            f.source._validate, f.target._validate, f.validate))):
        f._kernel[1].validate()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_hom_kernel_matches_former_body_on_wedges(n, k):
    w = wedge_model(n, PointedSet(["*"] + ["a", "b", "c", "d"][:k]))
    assert _kernel_entries(lambda: hom_kernel(w.bnd)) == _kernel_entries(
        lambda: _former_hom_kernel(w.bnd))


def _z4_by_z4(b):
    """Q = C = Z/4 with cocycle beta(e, e) = b: a valid class-2 group of
    order 16 for every b (lam is 0 on one generator)."""
    return Class2Group(FinAbGroup(1, [[4]]), FinAbGroup(1, [[4]]), [[b]])


def _z4_grid_homs():
    """Every valid hom between two such groups, b_s, b_t in 0..3: the
    generator goes to (q, c) and the central map is multiplication by k,
    for q, c, k in 0..3."""
    for bs, bt, q, c, k in itertools.product(range(4), repeat=5):
        s, t = _z4_by_z4(bs), _z4_by_z4(bt)
        try:
            yield Class2Hom(s, t, [t.element([q], [c])],
                            AbMap(s.c, t.c, [[k]]))
        except ValueError:
            continue


def test_hom_kernel_on_the_z4_grid_matches_brute_force():
    """Each kernel that is answered has the brute-force kernel as the image
    of its inclusion, hit once per element (as many elements as images),
    and the former body's integers.  Before the lifts were twisted,
    448 of the 640 homs were answered and 192 raised; 568 are answered now,
    and the 72 refusals need a cocycle term of the kernel that the
    ordered-product cocycle drops (the strict xfail below)."""
    answered = refused = 0
    for f in _z4_grid_homs():
        s = f.source
        brute = {(x.qvec[0] % 4, x.cvec[0] % 4) for x in s.elements()
                 if f.eval(x).is_identity()}
        try:
            k, incl = hom_kernel(f)
        except QuotientError:
            refused += 1
            continue
        answered += 1
        images = [incl.eval(x) for x in k.elements()]
        assert len(images) == len(brute)
        assert {(y.qvec[0] % 4, y.cvec[0] % 4) for y in images} == brute
        assert _kernel_entries(lambda: (k, incl)) == _kernel_entries(
            lambda: _former_hom_kernel(f))
    assert (answered, refused) == (568, 72)


def test_kernel_inclusions_pass_their_check():
    """`hom_kernel` builds its kernel group and inclusion unchecked.  On
    every answered hom of the Z/4 grid, on random homs out of free class-2
    groups into free groups and quotients of them, and on wedge
    boundaries, both pass their checks.  With `_twist_lifts` dropped, 192
    of the 640 grid inclusions fail `validate`."""
    answered = 0
    for f in _z4_grid_homs():
        try:
            k, incl = hom_kernel(f)
        except QuotientError:
            continue
        k._validate()
        incl.validate()
        answered += 1
    assert answered == 568
    rng = random.Random(2603)
    targets = [free_nil(PointedSet(list("abc"[:k]))) for k in (2, 3)]
    targets += _random_free_quotients(rng)
    kernels = []
    for t in targets:
        for k in (1, 2, 3):
            s = free_nil(PointedSet(list("xyz"[:k])))
            f = s.free_hom(t, [
                t.element([rng.randint(-2, 2) for _ in range(t.q.ngens)],
                          [rng.randint(-2, 2) for _ in range(t.c.ngens)])
                for _ in range(k)])
            kernels.append(hom_kernel(f))
    for n in (2, 3):
        for k in (1, 2, 3):
            w = wedge_model(n, PointedSet(["*"] + list("abc"[:k])))
            kernels.append(hom_kernel(w.bnd))
    for k, incl in kernels:
        k._validate()
        incl.validate()


@pytest.mark.xfail(strict=True, raises=QuotientError,
                   reason="the kernel, all of g, has an element of order 8 "
                          "over a Q generator of order 4: it needs a "
                          "diagonal cocycle term, which the ordered-product "
                          "cocycle drops, so no twist of the lifts exists")
def test_hom_kernel_of_a_group_needing_a_diagonal_cocycle():
    g = _z4_by_z4(1)
    k, _ = hom_kernel(trivial_hom(g, g))
    assert k.order() == 16


def test_products_refuse_elements_of_other_groups():
    """A product, commutator or conjugate was computed in the left
    operand's group: 1 in Z/2 times 1 in Z was the identity, and 1 in Z
    times 1 in Z/2 was not.  Both orders refuse now, and elements of equal
    but distinct groups still multiply."""
    z2 = abelian_as_class2(FinAbGroup(1, [[2]]))
    z = abelian_as_class2(FinAbGroup(1))
    for x, y in ((z2.element([1]), z.element([1])),
                 (z.element([1]), z2.element([1]))):
        for op in (lambda: x * y, lambda: x.commutator(y),
                   lambda: x.conjugate_by(y)):
            with pytest.raises(ValueError, match="different groups"):
                op()
    other_z2 = abelian_as_class2(FinAbGroup(1, [[2]]))
    assert (z2.element([1]) * other_z2.element([1])).is_identity()
    g, h = free_nil(POINTS), free_nil(POINTS)
    x, y = g.generator(0), h.generator(1)
    assert x.commutator(y) == g.central_generator(0)
    assert x.conjugate_by(y) == x * g.central_generator(0)
    assert (x * y).group is g


def _key(x):
    """An element of a Z/4-by-Z/4 group as its residues."""
    return x.qvec[0] % 4, x.cvec[0] % 4


def _generated(g, gens):
    """The residues of the subgroup of the finite group g that gens
    generate, closed under multiplication by them."""
    seen = {_key(g.identity())}
    todo = [g.identity()]
    while todo:
        x = todo.pop()
        for y in gens:
            z = x * y
            if _key(z) not in seen:
                seen.add(_key(z))
                todo.append(z)
    return seen


def test_kernel_generators_on_the_z4_grid_generate_the_kernel():
    """For every valid hom of the grid, the 72 whose `hom_kernel` is
    refused included, the kernel generators generate the brute-force
    kernel, and `is_isomorphism` is the brute-force answer.

    Mutations this catches: dropping the central columns from
    `kernel_generators` (the kernel of the trivial hom of Z/4-by-Z/4 with
    beta = 0 reads as the Q directions alone), and dropping the lifts."""
    refused = isos = 0
    for f in _z4_grid_homs():
        s = f.source
        brute = {_key(x) for x in s.elements() if f.eval(x).is_identity()}
        gens = kernel_generators(f)
        assert all(f.eval(x).is_identity() for x in gens)
        assert _generated(s, gens) == brute
        image = {_key(f.eval(x)) for x in s.elements()}
        assert f.is_isomorphism() == (len(brute) == 1 and len(image) == 16)
        isos += f.is_isomorphism()
        try:
            hom_kernel(f)
        except QuotientError:
            refused += 1
    # 128 isomorphisms, each a brute-force bijection
    assert (refused, isos) == (72, 128)


def _former_kernel_generators(f: Class2Hom):
    """The former `kernel_generators`: the lifts, then the columns of the
    inclusion of the C-layer kernel group, built first."""
    ck, cincl = f.cmap.kernel()
    _, kelems = _kernel_lifts(f)
    s = f.source
    return kelems + [s.central([row[j] for row in cincl.matrix])
                     for j in range(ck.ngens)]


def _raw_generators(gens):
    """The generators' raw vectors, or the lifting error."""
    try:
        return [_raw(x) for x in gens()]
    except AssertionError as e:
        return str(e)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_generators_match_former_body(data):
    """The held kernel basis of the central-layer map gives the columns of
    its kernel group's inclusion: the same vectors, on homs whose
    central-layer map is well defined, injective and not."""
    f = _draw_kernel_hom(data)
    assume(_error(lambda: AbMap(f.source.c, f.target.c, f.cmap.matrix))
           is None)
    # a fresh hom and central-layer map hold nothing the former body built
    assert _raw_generators(lambda: _former_kernel_generators(f)) == \
        _raw_generators(lambda: kernel_generators(Class2Hom(
            f.source, f.target, f.gen_images,
            AbMap(f.source.c, f.target.c, f.cmap.matrix), check=False)))


def test_is_isomorphism_answers_where_the_kernel_group_is_refused():
    """g needs a diagonal cocycle term in the kernel of its trivial hom,
    so `hom_kernel` refuses it (the strict xfail above); the kernel
    generators answer without a kernel group."""
    g = _z4_by_z4(1)
    assert not trivial_hom(g, g).is_isomorphism()
    assert identity_hom(g).is_isomorphism()
    with pytest.raises(QuotientError):
        hom_kernel(trivial_hom(g, g))


def _abelian_hom_kernel(src: FinAbGroup, tgt: FinAbGroup, a):
    """hom_kernel of the hom between abelian groups viewed as class two
    whose Q map is a, checked against the abelian kernel of a: the same
    invariants, a trivial central layer and an injective inclusion."""
    s, t = abelian_as_class2(src), abelian_as_class2(tgt)
    f = Class2Hom(s, t, [t.element([row[j] for row in a])
                         for j in range(src.ngens)], zero_map(s.c, t.c))
    k, incl = hom_kernel(f)
    assert k.q.is_isomorphic_to(AbMap(src, tgt, a).kernel()[0])
    assert k.c.is_trivial()
    assert AbMap(k.q, src, incl.q_matrix()).is_injective()
    return k


def test_hom_kernel_of_abelian_groups_relates_exactly():
    """The kernel's relations are the source relations in the kernel
    basis, solved exactly.  Solved modulo those same relations, this
    kernel read Z/2 + Z/1650, with an inclusion not injective on Q."""
    k = _abelian_hom_kernel(FinAbGroup(3, [[-24, 24, 26], [-51, 54, 57]]),
                            FinAbGroup(3, [[-1, -2, 2], [2, -3, -1]]),
                            [[2, 0, 2], [-1, 0, 1], [-1, -1, -1]])
    assert (k.q.free_rank, k.q.invariant_factors) == (0, (6,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hom_kernel_of_abelian_groups_matches_the_abelian_kernel(data):
    """Random well-defined homs: the source relations are drawn from the
    lattice of vectors the Q map sends into the target relations."""
    ns, nt = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    coeff = st.integers(-3, 3)
    tgt = FinAbGroup(nt, _matrix(data.draw, data.draw(st.integers(0, 2)),
                                 nt, coeff))
    a = _matrix(data.draw, nt, ns, coeff)
    pre = tgt.lattice.preimage(a, ns)
    rels = [la.mat_vec(la.transpose(pre, ns), data.draw(_vectors(len(pre),
                                                                 coeff)))
            for _ in range(data.draw(st.integers(0, 2)))] if pre else []
    _abelian_hom_kernel(FinAbGroup(ns, rels), tgt, a)


def _solve_blockwise(rows, rhs, nc, nq, cq: FinAbGroup):
    """Solve the stacked twist system modulo the quotient's C relations."""
    nrel = len(cq.relations)
    neq = len(rhs)
    nunk = nc * nq
    nblocks = neq // nc
    ext_cols = nunk + nblocks * nrel
    a = [row[:] + [0] * (nblocks * nrel) for row in rows]
    for b in range(nblocks):
        for k, lrow in enumerate(cq.relations):
            col = nunk + b * nrel + k
            for r in range(nc):
                a[b * nc + r][col] = lrow[r]
    sol = la.Lattice(a, ext_cols).solve(rhs)
    if sol is None:
        return None
    t = [[sol[r * nq + k] for k in range(nq)] for r in range(nc)]
    return t


def _stacked_twist(qparts, cparts, nq, cq):
    """Oracle for the projection twist: one linear system in the nc*nq
    entries of T, plus a slack block in cq's relations per generator."""
    nc = cq.ngens
    rows, rhs = [], []
    for qe, ce in zip(qparts, cparts):
        for r in range(nc):
            row = [0] * (nc * nq)
            for k in range(nq):
                row[r * nq + k] = qe[k]
            rows.append(row)
            rhs.append(-ce[r])
    if not rows:
        return la.zeros(nc, nq)
    return _solve_blockwise(rows, rhs, nc, nq, cq)


def _compare_twist_solvers(qparts, cparts, nq, cq):
    """Both twist solvers agree on solvability and every T they return
    solves T q_e == -c_e modulo cq; True if solvable."""
    new = _projection_twist(qparts, cparts, nq, cq)
    old = _stacked_twist(qparts, cparts, nq, cq)
    assert (new is None) == (old is None)
    for t in (new, old):
        if t is not None:
            for qe, ce in zip(qparts, cparts):
                assert la.in_lattice(cq.relations, cq.ngens,
                                     la.vec_add(la.mat_vec(t, qe), ce))
    return new is not None


def _compare_twists(group, gens):
    """Both twist solvers on the normal closure of gens."""
    sub = Subgroup(group, gens, normal=True)
    return _compare_twist_solvers(
        [e.qvec for e in gens], [e.cvec for e in gens], group.q.ngens,
        FinAbGroup(group.c.ngens, sub.c_rows))


def test_projection_twist_matches_stacked_solve_on_free_quotients():
    rng = random.Random(11)
    solvable = []
    for k in (1, 2, 3):
        g = free_nil(PointedSet(list("abc"[:k])))
        for _ in range(40):
            gens = [g.element([rng.randint(-3, 3) for _ in range(k)],
                              [rng.randint(-3, 3) for _ in range(g.c.ngens)])
                    for _ in range(rng.randint(0, 3))]
            solvable.append(_compare_twists(g, gens))
    assert any(solvable) and not all(solvable)


def test_projection_twist_matches_stacked_solve_on_random_systems():
    # systems that need no normal closure, so d_j can be a unit modulo an
    # invariant factor of cq without dividing it (T = 2 solves 2 T == -1
    # modulo 5)
    assert _projection_twist([[2]], [[1]], 1, FinAbGroup(1, [[5]])) == [[2]]
    rng = random.Random(12)
    solvable = []
    for _ in range(150):
        nq, nc = rng.randint(0, 3), rng.randint(0, 3)
        ng = rng.randint(0, 3)
        cq = FinAbGroup(nc, [[rng.randint(-6, 6) for _ in range(nc)]
                             for _ in range(rng.randint(0, 3))])
        qparts = [[rng.randint(-4, 4) for _ in range(nq)] for _ in range(ng)]
        cparts = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(ng)]
        solvable.append(_compare_twist_solvers(qparts, cparts, nq, cq))
    assert any(solvable) and not all(solvable)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_projection_twist_matches_stacked_solve_on_wedges(n, k):
    bnd = wedge_model(n, PointedSet(list("abcd"[:k]))).bnd
    gens = [bnd.eval(x) for x in bnd.source.generators()]
    assert _compare_twists(bnd.target, gens)


def test_product_group_embeddings_commute():
    g = free_nil(PointedSet(["a"]))
    h = free_nil(PointedSet(["b"]))
    p, embed = product_group(g, h)
    x = embed(g.generator(0), h.identity())
    y = embed(g.identity(), h.generator(0))
    assert x * y == y * x


def _former_commutator_subgroup(g: Class2Group) -> FinAbGroup:
    """The image of lam in C, presented on a basis of lam's columns plus
    the C relations."""
    nc = g.c.ngens
    lat = la.row_basis(la.transpose(g.lam, g.q.ngens ** 2) + g.c.relations,
                       nc)
    solver = la.Lattice(la.transpose(lat, nc), len(lat))
    return FinAbGroup(len(lat), [solver.solve(r) for r in g.c.relations])


def _former_is_isomorphic_abstract(g: Class2Group, h: Class2Group) -> bool:
    """The former body: C modulo commutators as the cokernel of lam out of
    the tensor square of Q, whose relations it never read."""
    if not g.abelianization().is_isomorphic_to(h.abelianization()):
        return False
    mods = [AbMap(tensor_square(x.q), FinAbGroup(x.c.ngens,
                                                       x.c.relations),
                  x.lam, check=False).cokernel()[0] for x in (g, h)]
    coms = [_former_commutator_subgroup(x) for x in (g, h)]
    return (mods[0].is_isomorphic_to(mods[1])
            and coms[0].is_isomorphic_to(coms[1]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_isomorphic_abstract_matches_former_body(data):
    """Two groups drawn apart, and a group against a copy whose central
    layer has one more relation.  Q has at most two generators, so the
    former body's tensor squares stay small.

    Mutations this catches: comparing only the abelianizations,
    and dropping the comparison of C modulo commutators."""
    g = data.draw(_unchecked_class2_groups(2, 3))
    h = data.draw(_unchecked_class2_groups(2, 3))
    extra = data.draw(_vectors(g.c.ngens, st.integers(-3, 3)))
    g2 = Class2Group(g.q, FinAbGroup(g.c.ngens, g.c.relations + [extra]),
                     g.beta, check=False)
    for x, y in ((g, h), (g, g2), (g2, g), (g, g)):
        assert x.is_isomorphic_abstract(y) \
            == _former_is_isomorphic_abstract(x, y)


def test_abelianization_and_underlying():
    g = free_nil(POINTS)
    ab = g.abelianization()
    assert ab.free_rank == 3
    flat = free_nil(PointedSet(["a"]))  # no commutators, so abelian
    assert flat.underlying_ab().free_rank == 1


def _former_abelianization(g: Class2Group):
    """The former `abelianization`: the group on Q and on C modulo the
    columns of lam, with lam zero and g's beta, and its `underlying_ab`,
    written out here (with the dense collection), as a group with lam zero
    and a beta that is not symmetric can no longer be built."""
    nq, nc = g.q.ngens, g.c.ngens
    if not nc:
        return g.q
    cq = FinAbGroup(nc, g.c.relations + la.transpose(g.lam, nq * nq))
    rels = [[0] * nq + r for r in cq.relations]
    for r in g.q.relations:
        rels.append(list(r) + [-x for x in _dense_collect_central(g, r)])
    return FinAbGroup(nq + nc, rels)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_abelianization_matches_its_former_body(data):
    """The same rows in the same order, built without a temporary class-2
    group, so no `is_abelian` test runs; no central layer gives Q itself."""
    if data.draw(st.booleans()):
        g = data.draw(_unchecked_class2_groups())
    else:
        g = free_nil(PointedSet(["a", "b", "c", "d"][
            :data.draw(st.integers(0, 4))]))
    with mock.patch.object(Class2Group, "is_abelian",
                           side_effect=AssertionError("is_abelian ran")):
        ab = g.abelianization()
    former = _former_abelianization(g)
    if not g.c.ngens:
        assert ab is g.q and former is g.q
    assert (ab.ngens, ab.relations) == (former.ngens, former.relations)


def test_underlying_ab_is_held_on_the_group():
    flat = free_nil(PointedSet(["a"]))
    assert flat.underlying_ab() is flat.underlying_ab()
    # the held kernel group of a boundary answers every caller with one group
    w = wedge_model(2, PointedSet(["a", "b"]))
    k, _ = hom_kernel(w.bnd)
    assert hom_kernel(w.bnd)[0].underlying_ab() is k.underlying_ab()
    g = free_nil(POINTS)
    for _ in range(2):
        with pytest.raises(ValueError, match="needs an abelian group"):
            g.underlying_ab()


def test_boundary_map_levels():
    g = free_nil(PointedSet(["a", "b"]))
    for n in (2, 3):
        lts, bnd, from_plain, sq = boundary_map(n, g)
        assert sq is from_plain.source and from_plain.target is lts
        kb, _ = bnd.kernel()
        if n == 2:
            # kernel of Z^2 tensor-square boundary has rank 3
            assert kb.free_rank == 3 and not kb.invariant_factors
        else:
            # at this level the kernel is the mod-2 reduction (Z/2)^2
            assert kb.free_rank == 0
            assert kb.invariant_factors == (2, 2)


def test_level_gamma_and_tensor_shapes():
    a = FinAbGroup(2)
    for n in (2, 3):
        gam, inc = level_gamma(n, a)
        lts, _ = level_tensor_square(n, a)
        assert inc.target.relations == lts.relations
        kin, _ = inc.kernel()
        assert kin.is_trivial()


def _former_middle_exact(inc: AbMap, bnd: AbMap) -> bool:
    """The former middle step of exact_sequence_report: lift inc's columns
    into the kernel of bnd, and ask that the lift be onto."""
    kb, kb_incl = bnd.kernel()
    mid = bnd.source
    solver = la.Lattice(kb_incl.matrix, kb.ngens, mid.relations)
    lift_cols = []
    for j in range(inc.source.ngens):
        coeffs = solver.solve([inc.matrix[r][j] for r in range(mid.ngens)])
        if coeffs is None:
            return False
        lift_cols.append(coeffs)
    lifted = AbMap(inc.source, kb, la.transpose(lift_cols, kb.ngens),
                   check=False)
    return lifted.cokernel()[0].is_trivial()


def _former_exact_sequence_report(n: int, points: PointedSet) -> dict:
    """The former exact_sequence_report, its boundary from boundary_map."""
    g = free_nil(points)
    _, inc = level_gamma(n, g.q)
    _, bnd, _, _ = boundary_map(n, g)
    report = {"head_injective": inc.kernel()[0].is_trivial(),
              "composite_zero": bnd.compose(inc).is_zero(),
              "middle_exact": _former_middle_exact(inc, bnd),
              "boundary_hits_commutators": bnd.cokernel()[0].is_trivial()}
    report["exact"] = all(report.values())
    return report


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_sequence(n, k):
    """Exact, with the report of the former body (crit 1's range)."""
    points = PointedSet([chr(97 + i) for i in range(k)])
    rep = exact_sequence_report(n, points)
    assert rep["exact"], rep
    assert rep == _former_exact_sequence_report(n, points)


@pytest.mark.parametrize("n", [2, 3])
def test_exact_matches_former_middle_step_on_non_exact_pairs(n):
    """The four-term sequence's pairs are exact, so the abelian rule is
    also compared where it must say no: a zero outgoing map, a zero
    incoming map, an incoming map with one column dropped and the
    identity as incoming map.

    Mutations of `abelian.exact` this catches: testing only that
    the image lies in the kernel, and testing only that the kernel lies
    in the image."""
    seen = set()
    for k in (1, 2, 3):
        g = free_nil(PointedSet(["a", "b", "c"][:k]))
        gam, inc = level_gamma(n, g.q)
        _, bnd, _, _ = boundary_map(n, g)
        lts = inc.target
        dropped = AbMap(FinAbGroup(gam.ngens - 1), lts,
                        [row[1:] for row in inc.matrix], check=False)
        for f_in, f_out in ((inc, bnd), (inc, zero_map(lts, g.c)),
                            (zero_map(gam, lts), bnd), (dropped, bnd),
                            (identity_map(lts), bnd)):
            got = exact(f_in, f_out)
            assert got == _former_middle_exact(f_in, f_out)
            seen.add(got)
    assert seen == {True, False}


def test_hom_equality_compares_source_and_target_shapes():
    """Homs out of groups with different generator counts are unequal
    both ways, never compared generator by generator; homs between equal
    but distinct group objects are equal."""
    z2 = abelian_as_class2(FinAbGroup(2))
    z1 = abelian_as_class2(FinAbGroup(1))
    from_z1 = Class2Hom(z1, z2, [z2.generator(0)], zero_map(z1.c, z2.c),
                        check=False)
    assert identity_hom(z2) != from_z1 and from_z1 != identity_hom(z2)
    fab = free_nil(PointedSet(["a", "b"]))
    fa = free_nil(PointedSet(["a"]))
    from_fa = Class2Hom(fa, fab, [fab.generator(0)], zero_map(fa.c, fab.c),
                        check=False)
    assert identity_hom(fab) != from_fa and from_fa != identity_hom(fab)
    assert identity_hom(fab) == identity_hom(free_nil(PointedSet(["a", "b"])))
    assert identity_hom(fab) != "hom"


def test_element_equality_compares_group_shapes():
    """Elements of groups with different generator counts are unequal both
    ways; elements of equal but distinct groups compare modulo relations."""
    z2 = abelian_as_class2(FinAbGroup(2))
    z1 = abelian_as_class2(FinAbGroup(1))
    assert z2.generator(0) != z1.generator(0)
    assert z1.generator(0) != z2.generator(0)
    fab = free_nil(PointedSet(["a", "b"]))
    fab2 = free_nil(PointedSet(["a", "b"]))
    x = fab.generator(0) * fab.generator(1)
    assert x == fab2.generator(0) * fab2.generator(1)
    assert x != fab2.generator(1) * fab2.generator(0)
    z4 = abelian_as_class2(FinAbGroup(1, [[4]]))
    assert z4.generator(0) ** 5 == abelian_as_class2(
        FinAbGroup(1, [[4]])).generator(0)


def test_element_equality_is_symmetric_across_relations():
    """0 in Z/2 and 2 in Z, as class-2 groups, are unequal both ways; the
    answer used to depend on which side's relations ran the test.  A C
    layer with other relations also separates them."""
    z2 = abelian_as_class2(FinAbGroup(1, [[2]]))
    z = abelian_as_class2(FinAbGroup(1))
    assert z2.element([0]) != z.element([2])
    assert z.element([2]) != z2.element([0])
    assert z2.element([0]) == abelian_as_class2(
        FinAbGroup(1, [[2]])).element([2])
    c2 = Class2Group(FinAbGroup(1), FinAbGroup(1, [[2]]), [[0]])
    c = Class2Group(FinAbGroup(1), FinAbGroup(1), [[0]])
    assert c2.element([1], [0]) != c.element([1], [2])
    assert c.element([1], [2]) != c2.element([1], [0])


def _former_subgroup_coords(elem, incl):
    """The pullback through an inclusion that `Class2Hom.preimage`
    replaced (`crossed._subgroup_coords`), kept as its oracle: raw
    (qvec, cvec), or None where it raised."""
    m = incl.q_map().preimage(elem.qvec)
    if m is None:
        return None
    prod = incl.target.power_product(incl.gen_images, m.vec)
    cc = incl.cmap.preimage(la.vec_sub(elem.cvec, prod.cvec))
    return None if cc is None else (m.vec, cc.vec)


def _former_inverse_values(f):
    """The values the lifting loops of the former `Class2Hom.inverse` gave
    the target's generators: raw (qvec, cvec), None where a loop raised."""
    s, t = f.source, f.target
    out = []
    for ej in la.identity(t.q.ngens):
        qpre = f.q_map().preimage(ej)
        if qpre is None:
            out.append(None)
            continue
        img = f.eval(s.element(qpre.vec))
        cfix = f.cmap.preimage([-x for x in img.cvec])
        out.append(None if cfix is None else (qpre.vec, cfix.vec))
    for g in t.generators()[t.q.ngens:]:
        pre = f.cmap.preimage(g.cvec)
        out.append(None if pre is None else ([0] * s.q.ngens, pre.vec))
    return out


def _pullback(f, y):
    """f.preimage(y) as raw vectors, after checking that it hits y."""
    x = f.preimage(y)
    if x is None:
        return None
    assert f.eval(x) == y
    return _raw(x)


def _check_inclusion(incl, rng, outside=3):
    """preimage on an inclusion against the former pullback: on the
    images of the generators and of random elements of the subgroup, hit
    exactly, and on random ambient elements, some of them outside.
    Returns how many of those it refused."""
    k, amb = incl.source, incl.target
    ys = [incl.eval(x) for x in k.generators()]
    ys += [incl.eval(k.element([rng.randint(-3, 3) for _ in range(k.q.ngens)],
                               [rng.randint(-3, 3) for _ in range(k.c.ngens)]))
           for _ in range(3)]
    for y in ys:
        assert _pullback(incl, y) == _former_subgroup_coords(y, incl)
        assert _pullback(incl, y) is not None
    refused = 0
    for _ in range(outside):
        y = amb.element([rng.randint(-3, 3) for _ in range(amb.q.ngens)],
                        [rng.randint(-3, 3) for _ in range(amb.c.ngens)])
        got = _pullback(incl, y)
        assert got == _former_subgroup_coords(y, incl)
        refused += got is None
    return refused


def test_preimage_matches_the_former_pullbacks():
    """`Class2Hom.preimage` gives the raw integers of the pullback it
    replaced on the kernel inclusions of crit-5 fibers and of their target
    boundaries, with the fiber boundary's and connecting map's own
    elements, and on the kernel inclusions of level-2/3 wedge boundaries on
    1-3 letters, with the pairing values the k-invariant reads; and those of the former `inverse` loops on the
    automorphisms of conjugation modules and of `phi2`.  Every answer
    hits its element."""
    from secgroups.functors import fiber, phi2
    from secgroups.selftest import (_conjugation_module,
                                    _induced_wedge_morphism, _points,
                                    _random_quotient_wedge, _finite_rqm)
    rng = random.Random(2804)
    refused = 0
    for seed in range(40):
        srng = random.Random(seed)
        x = wedge_model(2, _points(srng.randint(1, 2)))
        y = _random_quotient_wedge(srng, 2, _points(srng.randint(1, 2)))
        f = _induced_wedge_morphism(srng, x, y)
        fib = fiber(f)
        ky, kyi = hom_kernel(y.bnd)
        zero = x.n.identity()
        ys = [fib.zero_incl.target.element(zero.qvec + m.qvec,
                                           zero.cvec + m.cvec)
              for m in kyi.values()]
        ys += [fib.zero_incl.eval(v) for v in fib.obj.bnd.values()]
        for v in ys:
            assert _pullback(fib.zero_incl, v) == _former_subgroup_coords(
                v, fib.zero_incl) is not None
        for incl in (fib.zero_incl, kyi):
            refused += _check_inclusion(incl, rng)
    for n in (2, 3):
        for k in (1, 2, 3):
            w = wedge_model(n, _points(k))
            kincl = hom_kernel(w.bnd)[1]
            refused += _check_inclusion(kincl, rng)
            # the pairing values the k-invariant pulls back
            for img in w.omega.images:
                if w.bnd.eval(img).is_identity():
                    assert _pullback(kincl, img) == _former_subgroup_coords(
                        img, kincl) is not None
            # a base generator is missed in the Q layer
            assert w.bnd.preimage(w.n.generator(0)) is None
    assert refused > 0
    autos = list(_conjugation_module(_points(2)).action.autos)
    autos += _conjugation_module(_points(3)).action.autos
    for x in (wedge_model(2, _points(2)), _finite_rqm(4, 6, 1)):
        autos += phi2(x).action.autos
    for a in autos:
        values = [_pullback(a, g) for g in a.target.generators()]
        assert values == _former_inverse_values(a)
        assert [_raw(v) for v in a.inverse().values()] == values


def test_preimage_on_the_z4_grid():
    """On every hom of the Z/4 grid, `preimage` gives, for each generator
    of the target, what the former `inverse` loops gave, None included;
    on each answered kernel inclusion, the former pullback.  Every answer
    hits its element, and a y outside the image gives None.  The one Q
    solution it reads misses 240 of the 10,240 pairs (hom, element of the
    image): each a y that only another Q solution reaches, through a Q
    direction sent outside the image of cmap.  There are none where cmap
    is onto or on an inclusion."""
    missed = 0
    for f in _z4_grid_homs():
        s, t = f.source, f.target
        assert [_pullback(f, g) for g in t.generators()] == (
            _former_inverse_values(f))
        image = {_key(f.eval(x)) for x in s.elements()}
        for y in t.elements():
            got = f.preimage(y)
            if got is None:
                missed += _key(y) in image
                assert _key(y) not in image or f.cmap.matrix[0][0] % 2 == 0
            else:
                assert f.eval(got) == y
        try:
            k, incl = hom_kernel(f)
        except QuotientError:
            continue
        for x in k.elements():
            y = incl.eval(x)
            assert _pullback(incl, y) == _former_subgroup_coords(
                y, incl) is not None
        for y in s.elements():
            if _pullback(incl, y) is None:
                assert _former_subgroup_coords(y, incl) is None
                assert not f.eval(y).is_identity()
    assert missed == 240


def test_preimage_refuses_in_either_layer():
    """The trivial hom of Z/4-by-Z/4 misses a generator in the Q layer
    and a central generator only in the C layer; `inverse` refuses a hom
    that misses a generator, and Z onto Z, from the Q layer into the C
    layer, which it reads as missing the central generator."""
    g = _z4_by_z4(1)
    f = trivial_hom(g, g)
    assert f.preimage(g.generator(0)) is None
    assert f.q_map().preimage([0]) is not None
    assert f.preimage(g.central_generator(0)) is None
    with pytest.raises(ValueError, match="generator 0 has no preimage"):
        f.inverse()
    s = Class2Group(FinAbGroup(1), FinAbGroup(0), [])
    t = Class2Group(FinAbGroup(0), FinAbGroup(1), [[]])
    onto = hom_from_values(s, t, [t.central([1])])
    assert onto.is_isomorphism()
    assert onto.eval(s.generator(0)) == t.central_generator(0)
    with pytest.raises(ValueError, match="generator 0 has no preimage"):
        onto.inverse()
