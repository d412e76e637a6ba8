"""Exact integer linear algebra, cross-checked against sympy."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from secgroups import intlinalg as la


def _random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("seed", range(8))
def test_smith_normal_form_properties(seed):
    rng = random.Random(seed)
    for _ in range(25):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = _random_matrix(rng, m, n)
        u, d, v, ui, vi = la.smith_normal_form(a, n)
        assert la.mat_mul(la.mat_mul(u, a), v) == d
        assert la.mat_mul(u, ui) == la.identity(m)
        assert la.mat_mul(v, vi) == la.identity(n)
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        nz = [x for x in diag if x]
        for p, q in zip(nz, nz[1:]):
            assert q % p == 0


@pytest.mark.parametrize("seed", range(4))
def test_invariant_factors_match_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, m, n)
        _, d, _, _, _ = la.smith_normal_form(a, n)
        mine = sorted(abs(d[i][i]) for i in range(min(m, n)) if d[i][i])
        sd = sympy_snf(sympy.Matrix(a) if a else sympy.zeros(m, n))
        theirs = sorted(abs(int(sd[i, i])) for i in range(min(m, n))
                        if sd[i, i])
        assert mine == theirs


def test_solve_and_kernel():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = la.mat_vec(a, x)
        sol = la.solve(a, n, b)
        assert sol is not None
        assert la.mat_vec(a, sol) == b
        for k in la.kernel_basis(a, n):
            assert la.mat_vec(a, k) == [0] * m


def test_solve_reports_unsolvable():
    a = [[2, 0], [0, 2]]
    assert la.solve(a, 2, [1, 0]) is None
    assert la.solve_mod(a, 2, [1, 0], [[1, 0]]) is not None


def test_lattice_membership_and_equality():
    rows = [[2, 0], [0, 3]]
    assert la.in_lattice(rows, 2, [4, 3])
    assert not la.in_lattice(rows, 2, [1, 0])
    other = [[2, 3], [0, 3], [2, 0]]
    assert la.lattices_equal(la.row_basis(rows, 2),
                             la.row_basis(other, 2), 2)


def test_preimage_lattice():
    a = [[2, 0], [0, 1]]
    target = [[4, 0], [0, 5]]
    pre = la.preimage_lattice(a, 2, target)
    for row in pre:
        img = la.mat_vec(a, row)
        assert la.in_lattice(target, 2, img)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_row_basis_is_idempotent(rows):
    b1 = la.row_basis(rows, 3)
    b2 = la.row_basis(b1, 3)
    assert la.lattices_equal(b1, b2, 3)


def test_kron_matches_definition():
    u = [1, -2]
    v = [3, 0, 1]
    assert la.kron(u, v) == [3, 0, 1, -6, 0, -2]


_KEEPS = [keep for r in range(len(la.TRANSFORMS) + 1)
          for keep in itertools.combinations(la.TRANSFORMS, r)]


@pytest.mark.parametrize("keep", _KEEPS, ids=lambda k: "+".join(k) or "none")
def test_smith_normal_form_builds_only_the_kept_transforms(keep):
    """D and every kept transform equal the full call's; the others are
    None."""
    rng = random.Random(300)
    cases = [([], 0), ([], 3), ([[], []], 0), ([[0, 0], [0, 0]], 2)]
    for _ in range(30):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        cases.append((_random_matrix(rng, m, n), n))
    for a, n in cases:
        u, d, v, ui, vi = la.smith_normal_form(a, n)
        full = dict(zip(la.TRANSFORMS, (u, v, ui, vi)))
        pu, pd, pv, pui, pvi = la.smith_normal_form(a, n, keep=keep)
        assert pd == d
        for name, got in zip(la.TRANSFORMS, (pu, pv, pui, pvi)):
            assert got == (full[name] if name in keep else None)


def test_empty_dimensions():
    u, d, v, ui, vi = la.smith_normal_form([], 3)
    assert d == [] and v == la.identity(3)
    assert la.mat_mul([], []) == []
    assert la.row_basis([], 2) == []


def _fresh_solve_mod(a, ncols, b, lattice_rows):
    """The one-SNF-per-call solve_mod that `Solver` replaced, as the oracle."""
    nrows = len(b)
    ext = [a[i][:] + [lattice_rows[k][i] for k in range(len(lattice_rows))]
           for i in range(nrows)]
    next_ = ncols + len(lattice_rows)
    u, d, v, _, _ = la.smith_normal_form(ext, next_)
    ub = la.mat_vec(u, b)
    y = [0] * next_
    diag = la.diagonal(d, next_)
    for i in range(len(ext)):
        di = diag[i] if i < len(diag) else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return la.mat_vec(v, y)[:ncols]


@st.composite
def _systems(draw):
    """(a, ncols, lattice rows, right-hand sides): 0-4 rows, columns and
    lattice rows, some zero or dependent, and right-hand sides that are
    solvable by construction or arbitrary (often unsolvable)."""
    entry = st.integers(-3, 3)

    def vec(n):
        return draw(st.lists(entry, min_size=n, max_size=n))

    def matrix(rows, cols):
        m = [vec(cols) for _ in range(rows)]
        if rows >= 2 and draw(st.booleans()):
            m[-1] = la.vec_scale(draw(st.integers(-2, 2)), m[0])
        return m

    nrows, ncols, nlat = (draw(st.integers(0, 4)) for _ in range(3))
    a = matrix(nrows, ncols)
    lat = matrix(nlat, nrows)
    rhs = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            x, z = vec(ncols), vec(nlat)
            rhs.append([la.mat_vec(a, x)[i]
                        + sum(lat[k][i] * z[k] for k in range(nlat))
                        for i in range(nrows)])
        else:
            rhs.append(vec(nrows))
    return a, ncols, lat, rhs


@given(_systems())
@settings(max_examples=400, deadline=None)
def test_held_solver_matches_fresh_solve_mod(system):
    a, ncols, lat, rhs = system
    solver = la.Solver(a, ncols, lat)
    for b in rhs:
        x = solver.solve(b)
        assert x == _fresh_solve_mod(a, ncols, b, lat)
        assert x == la.solve_mod(a, ncols, b, lat)
        if x is not None:
            diff = la.vec_sub(la.mat_vec(a, x), b)
            assert la.in_lattice(lat, len(b), diff)


def test_solver_rejects_a_wrong_length_right_hand_side():
    with pytest.raises(ValueError):
        la.Solver([[1, 0], [0, 1]], 2).solve([1])
