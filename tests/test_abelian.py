"""Finitely generated abelian groups, maps and the quadratic functors."""

import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from secgroups import intlinalg as la
from secgroups.abelian import (AbElem, AbMap, FinAbGroup, direct_sum, exact,
                               gamma, gamma_map, identity_map,
                               reduced_tensor_square,
                               tensor_square, tensor_square_map,
                               tensor_square_relations, tensor_z2, zero_map)
from secgroups.nil2 import Class2Group, Class2Hom, abelian_as_class2


def test_invariant_factors_and_rank():
    g = FinAbGroup(3, [[2, 0, 0], [0, 12, 0]])
    assert g.free_rank == 1
    assert list(g.invariant_factors) == [2, 12]
    assert g.is_isomorphic_to(FinAbGroup(3, [[0, 12, 0], [2, 0, 0]]))
    assert not g.is_isomorphic_to(FinAbGroup(3, [[3, 0, 0], [0, 8, 0]]))


def test_element_equality_mod_relations():
    g = FinAbGroup(2, [[3, 0]])
    assert g.element([4, 1]) == g.element([1, 1])
    assert g.element([1, 1]) != g.element([1, 2])


def test_elements_enumeration():
    g = FinAbGroup(2, [[2, 0], [0, 3]])
    els = list(g.elements())
    assert len(els) == 6
    assert g.order() == 6


def test_map_validation_rejects_bad_matrix():
    src = FinAbGroup(1, [[2]])
    tgt = FinAbGroup(1, [[3]])
    with pytest.raises(ValueError):
        AbMap(src, tgt, [[1]])
    ok = AbMap(src, tgt, [[0]])
    assert ok(src.element([1])) == tgt.zero()


def test_kernel_and_cokernel():
    # multiplication by 2 on Z/4: kernel and cokernel are both Z/2
    g = FinAbGroup(1, [[4]])
    f = AbMap(g, g, [[2]])
    ker, inc = f.kernel()
    assert ker.is_isomorphic_to(FinAbGroup(1, [[2]]))
    assert f(inc(ker.element([1]))) == g.zero()
    cok, proj = f.cokernel()
    assert cok.is_isomorphic_to(FinAbGroup(1, [[2]]))
    assert proj(f(g.element([1]))) == cok.zero()


def test_direct_sum_projections():
    a = FinAbGroup(1, [[2]])
    b = FinAbGroup(1)
    g, ia, ib, pa, pb = direct_sum(a, b)
    x = a.element([1])
    assert pa(ia(x)) == x
    assert pb(ia(x)) == b.zero()


def _swap_matrix(n):
    """x (x) y -> y (x) x on the basis e_i (x) e_j at index i*n + j."""
    m = la.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            m[j * n + i][i * n + j] = 1
    return m


def _pure(u, v):
    """u (x) v in the tensor square's basis."""
    return la.kron(u, v)


def test_tensor_square_swap_is_involution():
    a = FinAbGroup(2, [[2, 0]])
    sq = tensor_square(a)
    swap = AbMap(sq, sq, _swap_matrix(2))  # well defined on the square
    assert swap.compose(swap) == identity_map(sq)
    assert swap(_pure([1, 2], [3, 0])) == sq.element(_pure([3, 0], [1, 2]))


def test_tensor_square_relations_are_the_group_relations_in_order():
    # u (x) e_j then e_j (x) u, for each relation u, for j = 0, 1
    a = FinAbGroup(2, [[2, 0]])
    assert tensor_square_relations(a) == [[2, 0, 0, 0], [2, 0, 0, 0],
                                          [0, 2, 0, 0], [0, 0, 2, 0]]
    b = FinAbGroup(3, [[1, 2, 0], [0, 3, -1]])
    assert tensor_square(b).relations == tensor_square_relations(b)
    assert tensor_square_relations(FinAbGroup(2)) == []


def test_tensor_square_functorial():
    a, b = FinAbGroup(2), FinAbGroup(2)
    f = AbMap(a, b, [[1, 1], [0, 1]])
    tf = tensor_square_map(f, tensor_square(a), tensor_square(b))
    rng = random.Random(0)
    for _ in range(20):
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        lhs = tf(_pure(u, v))
        rhs = tf.target.element(_pure(la.mat_vec(f.matrix, u),
                                      la.mat_vec(f.matrix, v)))
        assert lhs == rhs


@pytest.mark.parametrize("n,expected", [
    (2, [[4]]),     # cyclic of even order doubles
    (3, [[3]]),     # odd order is unchanged
    (5, [[5]]),
    (6, [[12]]),
])
def test_gamma_of_cyclic_groups(n, expected):
    g = gamma(FinAbGroup(1, [[n]]))
    assert g.is_isomorphic_to(FinAbGroup(1, expected))


def test_gamma_of_free_group():
    # rank k free group gives rank k(k+1)/2
    g = gamma(FinAbGroup(3))
    assert g.is_isomorphic_to(FinAbGroup(6))


def _gamma_of(g, vec):
    """gamma(sum a_i e_i) in the basis gamma(e_i), then [e_i, e_j], i < j."""
    k = len(vec)
    cross = [vec[i] * vec[j] for i in range(k) for j in range(i + 1, k)]
    return g.element([x * x for x in vec] + cross)


def _cross_of(g, u, v):
    """The cross term [u, v] in the same basis."""
    k = len(u)
    cross = [u[i] * v[j] + u[j] * v[i]
             for i in range(k) for j in range(i + 1, k)]
    return g.element([2 * x * y for x, y in zip(u, v)] + cross)


def test_gamma_quadratic_identity():
    """gamma(a + b) - gamma(a) - gamma(b) equals the cross term."""
    a = FinAbGroup(2, [[4, 0]])
    gm = gamma(a)
    rng = random.Random(1)
    for _ in range(25):
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        lhs = (_gamma_of(gm, la.vec_add(u, v)) - _gamma_of(gm, u)
               - _gamma_of(gm, v))
        assert lhs == _cross_of(gm, u, v)


def test_gamma_map_functoriality():
    a = FinAbGroup(2)
    b = FinAbGroup(2, [[2, 0]])
    f = AbMap(a, b, [[1, 2], [0, 1]])
    gf = gamma_map(f, gamma(a), gamma(b))
    rng = random.Random(2)
    for _ in range(25):
        u = [rng.randint(-3, 3) for _ in range(2)]
        assert gf(_gamma_of(gf.source, u)) == _gamma_of(
            gf.target, la.mat_vec(f.matrix, u))


def test_reduced_tensor_square_kills_symmetry():
    a = FinAbGroup(2)
    grp, proj = reduced_tensor_square(a)
    assert proj.source.relations == tensor_square(a).relations
    x = proj.source.element(_pure([1, 0], [0, 1]))
    y = proj.source.element(_pure([0, 1], [1, 0]))
    assert not x + y == proj.source.zero()
    assert proj(x + y) == grp.zero()
    # exterior square Z plus 2-torsion coming from the diagonal classes
    assert grp.is_isomorphic_to(FinAbGroup(3, [[2, 0, 0], [0, 2, 0]]))


def test_tensor_z2():
    g = tensor_z2(FinAbGroup(2, [[3, 0]]))
    # the 3-torsion part dies, the free part becomes 2-torsion
    assert g.is_isomorphic_to(FinAbGroup(1, [[2]]))


def test_zero_and_identity_maps_compose():
    a = FinAbGroup(2, [[2, 0]])
    z = zero_map(a, a)
    i = identity_map(a)
    assert i.compose(z) == z
    assert z.compose(i) == z


@st.composite
def _lattice_and_vector(draw):
    """(n, relation rows, vector): 0-4 rows, some zero or dependent, and a
    vector that is a combination of the rows, perturbed or not."""
    n = draw(st.integers(0, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    if draw(st.booleans()):
        rows.append([0] * n)
    elif len(rows) >= 2 and draw(st.booleans()):
        rows.append(la.vec_add(rows[0], la.vec_scale(2, rows[1])))
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    vec = [0] * n
    for c, r in zip(coeffs, rows):
        vec = la.vec_add(vec, la.vec_scale(c, r))
    if draw(st.booleans()):
        vec = la.vec_add(vec, draw(st.lists(entry, min_size=n, max_size=n)))
    return n, rows, vec


@given(_lattice_and_vector(), st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_certificate_membership_and_division_match_fresh_snf(case, d):
    n, rows, vec = case
    g = FinAbGroup(n, rows)
    assert g.contains_in_lattice(vec) == la.in_lattice(rows, n, vec)
    s = g.divide(d, vec)
    scalar = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    assert (s is None) == (la.solve_mod(scalar, n, vec, rows) is None)
    if s is not None:
        assert la.in_lattice(rows, n, la.vec_sub(la.vec_scale(d, s), vec))


def test_preimage_is_the_same_on_repeated_calls_and_equal_maps():
    src = FinAbGroup(3, [[2, 0, 0]])
    tgt = FinAbGroup(2, [[4, 0], [0, 6]])
    matrix = [[2, 1, 0], [0, 3, 2]]
    f, g = AbMap(src, tgt, matrix), AbMap(src, tgt, matrix)
    answered = 0
    for y in tgt.elements():
        first = f.preimage(y)
        again, other = f.preimage(y), g.preimage(y.vec)
        fresh = la.solve_mod(matrix, 3, y.vec, tgt.relations)
        if first is None:
            assert again is None and other is None and fresh is None
            continue
        answered += 1
        assert first.vec == again.vec == other.vec == fresh
        assert f(first) == y
    assert 0 < answered < 24


def test_map_equality_compares_shapes():
    two, one = FinAbGroup(2), FinAbGroup(1)
    into_two = AbMap(one, two, [[1], [0]])
    assert identity_map(two) != into_two and into_two != identity_map(two)
    assert zero_map(two, one) != zero_map(two, two)
    assert identity_map(two) == identity_map(FinAbGroup(2))
    assert identity_map(two) != "map"


def test_map_equality_refuses_other_groups_in_both_orders():
    """2 into Z/2 and 0 into Z were equal one way and not the other: the
    difference was tested in the left map's target alone.  Maps between
    other groups, and class-2 homs, are unequal both ways, and maps
    between equal but distinct groups still compare modulo the target's
    relations."""
    z2, z = FinAbGroup(1, [[2]]), FinAbGroup(1)
    pairs = [(AbMap(z, z2, [[2]]), AbMap(z, z, [[0]])),
             (AbMap(z2, z2, [[1]]), AbMap(z, z2, [[1]]))]
    for a, b in pairs:
        assert a != b and b != a
    other_z2 = FinAbGroup(1, [[2]])
    a, b = AbMap(z, z2, [[2]]), AbMap(z, other_z2, [[0]])
    assert a == b and b == a
    # Class2Hom compares the layers of its source and target this way: a
    # hom out of Z and one out of Z/2 with the same image were equal
    s = Class2Group(FinAbGroup(0), FinAbGroup(1), [[]], [[]])
    t = Class2Group(FinAbGroup(0), FinAbGroup(1), [[]], [[]])
    t2 = Class2Group(FinAbGroup(0), FinAbGroup(1, [[2]]), [[]], [[]])
    f = Class2Hom(s, t2, [], AbMap(s.c, t2.c, [[2]]))
    g = Class2Hom(s, t, [], AbMap(s.c, t.c, [[0]]))
    assert f != g and g != f
    z, z2 = abelian_as_class2(z), abelian_as_class2(z2)
    f = Class2Hom(z, z2, [z2.element([1])], AbMap(z.c, z2.c, []))
    g = Class2Hom(z2, z2, [z2.element([1])], AbMap(z2.c, z2.c, []))
    assert f != g and g != f
    assert f == Class2Hom(abelian_as_class2(FinAbGroup(1)), z2,
                          [z2.element([3])], AbMap(z.c, z2.c, []))


def test_element_equality_and_arithmetic_refuse_other_groups():
    """0 in Z/2 and 2 in Z are unequal both ways: the test runs in neither
    group's lattice alone.  + and - refuse, and elements of equal but
    distinct groups still compare and add modulo their relations."""
    z2, z = FinAbGroup(1, [[2]]), FinAbGroup(1)
    assert AbElem(z2, [0]) != AbElem(z, [2])
    assert AbElem(z, [2]) != AbElem(z2, [0])
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="different groups"):
            op(AbElem(z2, [1]), AbElem(z, [1]))
        with pytest.raises(ValueError, match="different groups"):
            op(AbElem(z, [1]), AbElem(z2, [1]))
    other_z2 = FinAbGroup(1, [[2]])
    assert AbElem(z2, [0]) == AbElem(other_z2, [2])
    assert AbElem(other_z2, [2]) == AbElem(z2, [0])
    assert AbElem(z2, [1]) + AbElem(other_z2, [1]) == z2.zero()
    assert (AbElem(z2, [1]) - AbElem(other_z2, [3])).is_zero()
    assert AbElem(FinAbGroup(1, [[4]]), [0]) != AbElem(z2, [0])


def test_map_sums_refuse_other_groups():
    """A sum or difference of maps took the left operand's groups, so
    Z/2 -> Z/2 plus Z -> Z read as a map of Z/2.  Both orders refuse, on
    either end, and maps between equal but distinct groups still add."""
    z2, z = FinAbGroup(1, [[2]]), FinAbGroup(1)
    a, b = AbMap(z2, z2, [[1]]), AbMap(z, z, [[1]])
    mixed = AbMap(z, z2, [[1]])
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((a, b), (b, a), (a, mixed), (mixed, b)):
            with pytest.raises(ValueError, match="different groups"):
                op(x, y)
    other_z2 = FinAbGroup(1, [[2]])
    same = AbMap(other_z2, other_z2, [[1]])
    assert (a + same).is_zero()
    assert (same - a).is_zero()


def test_exact_refuses_maps_that_do_not_meet():
    """f: Z -> Z^2 and g: Z -> Z have no middle group; the answer was
    False.  Equal but distinct middle groups meet."""
    z, z2 = FinAbGroup(1), FinAbGroup(2)
    f = AbMap(z, z2, [[1], [0]])
    with pytest.raises(ValueError, match="do not meet"):
        exact(f, identity_map(z))
    with pytest.raises(ValueError, match="do not meet"):
        exact(identity_map(FinAbGroup(1, [[2]])), identity_map(z))
    g = AbMap(FinAbGroup(2), z, [[0, 1]])
    assert exact(f, g)
    assert not exact(f, zero_map(FinAbGroup(2), z))


class _DenseCertificate:
    """The former dense bodies of `FinAbGroup.contains_in_lattice`,
    `divide` and `elements`, reading dense rows of U and U^-1 built by the
    same SNF call, densified from its sparse rows of U and sparse columns
    of U^-1, kept as their oracle."""

    def __init__(self, n, rows):
        diag, u, _, ui, _ = la.smith_normal_form(
            la.transpose(rows, n), len(rows), keep=("u", "uinv"))
        u, ui = _dense_rows(u, n), la.transpose(_dense_rows(ui, n), n)
        rank = sum(1 for x in diag if x)
        self.n, self.rows, self.u, self.uinv = n, rows, u, ui
        self.moduli = diag[:rank] + [0] * (n - rank)
        self.checks = [(u[i], m) for i, m in enumerate(self.moduli) if m != 1]

    def contains_in_lattice(self, vec):
        if not any(vec):
            return True
        if not self.rows:
            return False
        for row, m in self.checks:
            y = sum(map(mul, row, vec))
            if y % m if m else y:
                return False
        return True

    def divide(self, d, vec):
        z = []
        for y, m in zip(_dense_mat_vec(self.u, vec), self.moduli):
            zi = la.divide_mod(d, y, m)
            if zi is None:
                return None
            z.append(zi)
        return _dense_mat_vec(self.uinv, z)

    def elements(self):
        for ys in itertools.product(*[range(m) for m in self.moduli]):
            yield _dense_mat_vec(self.uinv, list(ys))


def _dense_rows(vecs, n):
    """Sparse {index: entry} vectors as dense lists of n entries."""
    out = []
    for vec in vecs:
        row = [0] * n
        for j, x in vec.items():
            row[j] = x
        out.append(row)
    return out


def _dense_mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


@given(_lattice_and_vector(), st.integers(-4, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_certificate_matches_dense_bodies(case, d, data):
    """Membership, the raw vector `divide` returns (or None) and the raw
    vectors `elements` lists, in order, equal the dense bodies' on the
    vector, on zero and unit vectors and on sparse ones.  Mutations of the
    code this catches: passing a nonzero coordinate of modulus 0, dividing
    only the first nonzero coordinate, and dropping the column of U^-1 at
    the last coordinate."""
    n, rows, vec = case
    g, oracle = FinAbGroup(n, rows), _DenseCertificate(n, rows)
    vecs = [vec, [0] * n] + [[int(i == j) for i in range(n)]
                             for j in range(n)]
    vecs.append(data.draw(st.lists(st.sampled_from([0, 0, 0, 2, -3]),
                                   min_size=n, max_size=n)))
    for v in vecs:
        assert g.contains_in_lattice(v) == oracle.contains_in_lattice(v)
        assert g.divide(d, v) == oracle.divide(d, v)
    if g.order() is not None and g.order() <= 64:
        assert [e.vec for e in g.elements()] == list(oracle.elements())
