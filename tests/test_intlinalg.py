"""Exact integer linear algebra, cross-checked against sympy."""

import contextlib
import itertools
import random
import re
import signal
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from secgroups import intlinalg as la
from secgroups.abelian import FinAbGroup
from secgroups.functors import fiber, six_term
from secgroups.models import homotopy_groups, wedge_model
from secgroups.nil2 import hom_cokernel
from secgroups.selftest import (_induced_wedge_morphism, _points,
                                _random_quotient_wedge)
from secgroups.words import PointedSet

from lattices import lattices_equal


def _random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _dense_rows(vecs, n):
    """Sparse {index: entry} vectors as dense lists of n entries."""
    out = []
    for vec in vecs:
        row = [0] * n
        for j, x in vec.items():
            row[j] = x
        out.append(row)
    return out


def _snf(a, ncols, keep=la.TRANSFORMS):
    """The kernel's return as dense (U, D, V, Uinv)."""
    return _densify(la.smith_normal_form(a, ncols, keep), len(a), ncols)


def _densify(result, m, ncols):
    """A kernel return for an m x ncols input as dense (U, D, V, Uinv),
    the shape of the former dense return and of the oracle: U from its
    sparse rows, V and Uinv from their sparse columns, and D the m x ncols
    matrix with the returned diagonal."""
    diag, u, v, ui = result
    d = la.zeros(m, ncols)
    for i, x in enumerate(diag):
        d[i][i] = x

    def rows(t, k):
        return None if t is None else _dense_rows(t, k)

    def cols(t, k):
        return None if t is None else la.transpose(_dense_rows(t, k), k)

    return rows(u, m), d, cols(v, ncols), cols(ui, m)


@pytest.mark.parametrize("seed", range(8))
def test_smith_normal_form_properties(seed):
    rng = random.Random(seed)
    for _ in range(25):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = _random_matrix(rng, m, n)
        u, d, v, ui = _snf(a, n)
        assert la.mat_mul(la.mat_mul(u, a), v) == d
        assert la.mat_mul(u, ui) == la.identity(m)
        assert la.mat_mul(v, _dense_snf_oracle(a, n)[4]) == la.identity(n)
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
        diag = la.smith_normal_form(a, n)[0]
        mine = sorted(abs(x) for x in diag if x)
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
        sol = la.Lattice(a, n).solve(b)
        assert sol is not None
        assert la.mat_vec(a, sol) == b
        for k in la.kernel_basis(a, n):
            assert la.mat_vec(a, k) == [0] * m


def test_solve_reports_unsolvable():
    a = [[2, 0], [0, 2]]
    assert la.Lattice(a, 2).solve([1, 0]) is None
    assert la.solve_mod(a, 2, [1, 0], [[1, 0]]) is not None


def test_lattice_membership_and_equality():
    rows = [[2, 0], [0, 3]]
    assert la.in_lattice(rows, 2, [4, 3])
    assert not la.in_lattice(rows, 2, [1, 0])
    other = [[2, 3], [0, 3], [2, 0]]
    assert lattices_equal(la.row_basis(rows, 2),
                             la.row_basis(other, 2), 2)


def _former_preimage_lattice(a, ncols, lattice_rows):
    """The two-SNF preimage that `certified_preimage` replaced, the oracle:
    a kernel basis of [a | -lattice^T] cut to its x coordinates, then a row
    basis of those."""
    ext = [a[i][:] + [-r[i] for r in lattice_rows] for i in range(len(a))]
    ker = la.kernel_basis(ext, ncols + len(lattice_rows))
    return la.row_basis([k[:ncols] for k in ker], ncols)


def _rank(rows, ncols):
    diag = la.smith_normal_form(rows, ncols, keep=())[0]
    return sum(1 for x in diag if x)


def _assert_preimage_basis(pre, a, ncols, lattice_rows):
    """pre spans the oracle's lattice, has its rank as length, and its
    vectors are independent."""
    oracle = _former_preimage_lattice(a, ncols, lattice_rows)
    assert all(len(x) == ncols for x in pre)
    assert lattices_equal(pre, oracle, ncols)
    assert len(pre) == len(oracle) == _rank(pre, ncols)


def test_preimage_lattice():
    """Moduli 0, 1 and 4 by hand (U the identity): coordinate 0 must vanish,
    coordinate 1 is free, coordinate 2 is taken modulo 4."""
    a = [[1, 1, 0], [5, 0, 3], [2, 0, 0]]
    pre = la.certified_preimage([{i: 1} for i in range(3)], [0, 1, 4], a, 3)
    _assert_preimage_basis(pre, a, 3, [[0, 1, 0], [0, 0, 4]])
    assert la.certified_preimage([], [], [], 2) == [[1, 0], [0, 1]]
    assert la.certified_preimage([{0: 1}], [3], [[]], 0) == []


_PRE_VALUES = [1, -1, 2, -2, 3]


@st.composite
def _preimage_cases(draw):
    """(a, ncols, lattice rows): a map on 0-5 coordinates, some of its
    columns zero, into a lattice on 0-5 coordinates: diagonal with moduli
    0, 1 and > 1, none (a group without relations), or general rows.
    Matrices are sparse, a quarter of the cells or fewer nonzero: on dense
    4 x 4 draws with entries -3..3 the oracle's row basis lets entries grow
    to hundreds of digits (the dense SNF's blow-up, ROADMAP item 6), and
    comparing such a basis takes seconds, while the certified rule's
    vectors stay small."""
    n, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = _sparse_matrix(draw, n, ncols, _PRE_VALUES, n * ncols // 4 + 1)
    for j in draw(st.sets(st.integers(0, ncols - 1))) if ncols else ():
        for row in a:
            row[j] = 0
    kind = draw(st.sampled_from(["diagonal", "none", "general"]))
    if kind == "diagonal":
        mods = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 4, 6]),
                             min_size=n, max_size=n))
        lat = [[m * (i == j) for j in range(n)] for i, m in enumerate(mods)]
    elif kind == "none":
        lat = []
    else:
        nlat = draw(st.integers(0, 4))
        lat = _sparse_matrix(draw, nlat, n, _PRE_VALUES, nlat * n // 4 + 1)
    return a, ncols, lat


@given(_preimage_cases())
@settings(max_examples=300, deadline=None)
def test_group_preimage_matches_two_snf_oracle(case):
    a, ncols, lat = case
    g = FinAbGroup(len(a), lat)
    _assert_preimage_basis(g.lattice.preimage(a, ncols), a, ncols, lat)


@given(_preimage_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_solver_preimage_matches_two_snf_oracle(case, data):
    """A solver's lattice is the span of its matrix's columns and its
    lattice rows, the central lattice `hom_kernel` preimages into."""
    a, ncols, lat = case
    n = len(a)
    m = data.draw(st.integers(0, 3))
    b = _sparse_matrix(data.draw, n, m, _PRE_VALUES, n * m // 4 + 1)
    lattice = la.Lattice(b, m, lat)
    _assert_preimage_basis(lattice.preimage(a, ncols), a, ncols,
                           la.transpose(b, m) + lat)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_row_basis_is_idempotent(rows):
    b1 = la.row_basis(rows, 3)
    b2 = la.row_basis(b1, 3)
    assert lattices_equal(b1, b2, 3)


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
        diag, *full = la.smith_normal_form(a, n)
        full = dict(zip(la.TRANSFORMS, full))
        pdiag, *part = la.smith_normal_form(a, n, keep=keep)
        assert pdiag == diag
        for name, got in zip(la.TRANSFORMS, part):
            assert got == (full[name] if name in keep else None)


def _dense_snf_oracle(a, ncols, keep=la.TRANSFORMS):
    """The dense Smith normal form that the kernel replaced, as the oracle:
    it rescans d[t:, t:] for every pivot and for divisibility and walks
    every row of D in a column operation.  The kernel must make the same
    operations in the same order.  Returns (U, D, V, Uinv, Vinv): V^-1,
    which the kernel no longer carries, is always built, for the identity
    check V V^-1 == 1."""
    m = len(a)
    n = ncols
    d = [row[:] for row in a]
    u = la.identity(m) if "u" in keep else None
    v = la.identity(n) if "v" in keep else None
    ui = la.identity(m) if "uinv" in keep else None
    vi = la.identity(n)
    row_held = [x for x in (d, u) if x is not None]
    col_held = [x for x in (d, v) if x is not None]

    def row_swap(i, j):
        for x in row_held:
            x[i], x[j] = x[j], x[i]
        if ui is not None:
            for r in ui:
                r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):  # row i += k * row j
        for x in row_held:
            x[i] = [p + k * q for p, q in zip(x[i], x[j])]
        if ui is not None:
            for r in ui:
                r[j] -= k * r[i]

    def row_neg(i):
        for x in row_held:
            x[i] = [-p for p in x[i]]
        if ui is not None:
            for r in ui:
                r[i] = -r[i]

    def col_swap(i, j):
        for x in col_held:
            for r in x:
                r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def col_add(i, j, k):  # col i += k * col j
        for x in col_held:
            for r in x:
                r[i] += k * r[j]
        vi[j] = [p - k * q for p, q in zip(vi[j], vi[i])]

    t = 0
    while True:
        # find a pivot in the submatrix d[t:, t:]
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j]:
                    if pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
        if d[t][t] < 0:
            row_neg(t)
        # enforce divisibility of the rest of the submatrix by d[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return u, d, v, ui, vi


def _sparse_matrix(draw, m, n, values, max_nonzeros):
    a = la.zeros(m, n)
    if m and n:
        for i, j, x in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                               st.integers(0, n - 1),
                                               st.sampled_from(values)),
                                     max_size=max_nonzeros)):
            a[i][j] = x
    return a


_SIGNED = [x for x in range(-6, 7) if x]
_UNIT_FREE = [2, -2, 3, -3, 4, -4, 6, -6]


@st.composite
def _snf_inputs(draw):
    """(a, ncols) with 0-8 rows and columns, zero rows and columns
    included: sparse with entries -6..6; dense with entries -6..6; or
    unit-free with entries 0, ±2, ±3, ±4, ±6, so that pivots above 1, the
    divisibility scan and its restart run.  Dense draws keep to 25 cells and
    sparse ones to a quarter of the cells: beyond that the floor-quotient
    reduction, in the kernel as in the oracle, lets entries grow until a
    single 8x8 input takes seconds (ROADMAP item 6)."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["sparse", "dense", "unit-free"]))
    if kind == "dense":
        n = min(n, 25 // max(m, 1))
        return [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
                for _ in range(m)], n
    values = _SIGNED if kind == "sparse" else _UNIT_FREE
    return _sparse_matrix(draw, m, n, values, m * n // 4 + 1), n


class _NoResult(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail a call that has not returned after `seconds`: a kernel that
    loses track of an entry can swap the same columns forever."""
    def stop(signum, frame):
        raise _NoResult("no result after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_kernel_matches_oracle(a, ncols):
    """Equal entries for every keep subset, no zero entry held, and the
    former row basis."""
    for keep in _KEEPS:
        expected = _dense_snf_oracle(a, ncols, keep)[:4]
        with _time_limit(5):
            result = la.smith_normal_form(a, ncols, keep)
        assert _densify(result, len(a), ncols) == expected, keep
        assert all(x for t in result[1:] if t is not None
                   for vec in t for x in vec.values()), keep
    assert la.row_basis(a, ncols) == _former_row_basis(a, ncols)


@given(_snf_inputs())
@example(([[1, 1]], 2))
@example(([[3, 2, 1], [0, 2, 0]], 3))
@example(([[2, 0], [0, 3]], 2))
@example(([[0, 0, 0], [0, 4, 6], [0, 6, 4]], 3))
@settings(max_examples=300, deadline=None)
def test_smith_normal_form_matches_dense_oracle(case):
    """The same U, D, V and Uinv as the dense oracle for every keep
    subset, and the former row basis."""
    _assert_kernel_matches_oracle(*case)


@st.composite
def _workload_sized(draw):
    """30x40, at most 40 entries of ±1 or ±2, like the sparse relation
    matrices of module invariants."""
    return _sparse_matrix(draw, 30, 40, [1, -1, 2, -2], 40), 40


@given(_workload_sized())
@settings(max_examples=25, deadline=None)
def test_smith_normal_form_matches_dense_oracle_at_workload_size(case):
    _assert_kernel_matches_oracle(*case)


def test_smith_normal_form_matches_dense_oracle_on_library_inputs(
        monkeypatch):
    """Every input the library hands the kernel while it builds the level-2
    and level-3 wedge models on one to four letters with their h0 and h1,
    and one fiber and six-term sequence drawn as the fiber criterion draws
    them, gives the oracle's entries for every keep subset and the former
    row basis."""
    real, seen = la.smith_normal_form, {}

    def recorded(a, ncols, keep=la.TRANSFORMS):
        seen[ncols, tuple(map(tuple, a))] = ([row[:] for row in a], ncols)
        return real(a, ncols, keep)

    monkeypatch.setattr(la, "smith_normal_form", recorded)
    for n in (2, 3):
        for k in range(1, 5):
            homotopy_groups(wedge_model(n, _points(k)))
    rng = random.Random(0)
    x = wedge_model(2, _points(rng.randint(1, 2)))
    y = _random_quotient_wedge(rng, 2, _points(rng.randint(1, 2)))
    f = _induced_wedge_morphism(rng, x, y)
    fiber(f)
    six_term(f)
    monkeypatch.undo()
    assert len(seen) > 50
    assert max(len(a) * ncols for a, ncols in seen.values()) >= 500
    for a, ncols in seen.values():
        _assert_kernel_matches_oracle(a, ncols)


def _unimodular_inverse(rows):
    """The exact inverse of a square integer matrix of determinant ±1, by
    Gauss-Jordan elimination over the rationals, certified integral and by
    rows * inverse == 1.  Each step clears a column with one pivot, so the
    entries stay as small as the matrix's minors, where a Smith form of the
    same matrix may let them grow without bound."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                          for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for i in range(n):
            k = aug[i][c]
            if i != c and k:
                aug[i] = [x - k * y for x, y in zip(aug[i], aug[c])]
    inv = [row[n:] for row in aug]
    assert all(x.denominator == 1 for row in inv for x in row)
    inv = [[int(x) for x in row] for row in inv]
    assert la.mat_mul(rows, inv) == la.identity(n)
    return inv


def _former_row_basis(rows, ncols):
    """The former body of `la.row_basis`, kept as its oracle: d_i times row
    i of V^-1 at each nonzero d_i.  The kernel no longer carries V^-1, so
    here it is the exact inverse of the kernel's V."""
    if not rows:
        return []
    diag, _, v, _ = la.smith_normal_form(rows, ncols, keep=("v",))
    vi = _unimodular_inverse(la.transpose(_dense_rows(v, ncols), ncols))
    return [[di * x for x in vi[i]] for i, di in enumerate(diag) if di]


def test_row_basis_matches_the_former_body_on_a_normal_closure(monkeypatch):
    """The largest row basis the cokernel of the level-2 wedge boundary on
    16 letters asks for, its normal closure's 4,608 central rows on 120
    coordinates, is the former body's, integer for integer."""
    real, seen = la.row_basis, []

    def recorded(rows, ncols):
        seen.append(([row[:] for row in rows], ncols))
        return real(rows, ncols)

    monkeypatch.setattr(la, "row_basis", recorded)
    letters = ["x%d" % i for i in range(16)]
    hom_cokernel(wedge_model(2, PointedSet(["*"] + letters)).bnd)
    monkeypatch.undo()
    rows, ncols = max(seen, key=lambda case: len(case[0]) * case[1])
    assert (len(rows), ncols) == (4608, 120)
    assert la.row_basis(rows, ncols) == _former_row_basis(rows, ncols)


def _former_add_scaled(dst, src, k):
    for i, x in src.items():
        y = dst.get(i, 0) + k * x
        if y:
            dst[i] = y
        else:
            del dst[i]


def _former_smith_normal_form(a, ncols, keep):
    """The former body of `la.smith_normal_form`, kept as its oracle: the
    same pivots and operations, each made by one of five nested helpers
    built on every call.  The kernel now writes the operations out where
    they run, and must return the same raw (diag, U, V, Uinv), sparse
    dicts and all.  Only valid `keep` values reach it."""
    m = len(a)
    n = ncols
    u = [{i: 1} for i in range(m)] if "u" in keep else None
    v = [{i: 1} for i in range(n)] if "v" in keep else None
    ui = [{i: 1} for i in range(m)] if "uinv" in keep else None
    if not any(map(any, a)):
        return [0] * min(m, n), u, v, ui
    d = [row[:] for row in a]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
        if ui is not None:
            ui[i], ui[j] = ui[j], ui[i]

    def row_add(i, j, k):  # row i += k * row j
        d[i] = [p + k * q for p, q in zip(d[i], d[j])]
        if k:
            if u is not None:
                _former_add_scaled(u[i], u[j], k)
            if ui is not None:
                _former_add_scaled(ui[j], ui[i], -k)

    def row_neg(i):
        d[i] = [-p for p in d[i]]
        if u is not None:
            u[i] = {c: -x for c, x in u[i].items()}
        if ui is not None:
            ui[i] = {r: -x for r, x in ui[i].items()}

    def col_swap(i, j):
        for r in d[t:]:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            v[i], v[j] = v[j], v[i]

    def col_add(i, j, k):  # col i += k * col j
        for r in d[t:]:
            if r[j]:
                r[i] += k * r[j]
        if k and v is not None:
            _former_add_scaled(v[i], v[j], k)

    t = 0
    while True:
        pi = pj = best = 0
        for i in range(t, m):
            row = d[i]
            if 1 in row or -1 in row:
                pi, best = i, 1
                for pj in range(t, n):
                    if row[pj] == 1 or row[pj] == -1:
                        break
                break
            if any(row):
                for j in range(t, n):
                    x = row[j]
                    if x and (not best or abs(x) < best):
                        pi, pj, best = i, j, abs(x)
        if not best:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
        if d[t][t] < 0:
            row_neg(t)
        p = d[t][t]
        offender = None
        if p != 1:
            for i in range(t + 1, m):
                if any(x % p for x in d[i]):
                    offender = i
                    break
        if offender is None:
            t += 1
        else:
            row_add(t, offender, 1)
    return [d[i][i] for i in range(min(m, n))], u, v, ui


@st.composite
def _small_snf_inputs(draw):
    """(a, ncols) of at most 5 x 5 with entries -3..3: dense, or mostly
    zero.  Larger dense draws let the floor-quotient reduction blow
    entries up (ROADMAP item 6), in the oracle as in the kernel."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
                for _ in range(m)], n
    return _sparse_matrix(draw, m, n, [x for x in range(-3, 4) if x],
                          m * n // 3 + 1), n


@given(_small_snf_inputs())
@example(([[0, 0, 0], [0, 4, 6], [0, 6, 4]], 3))
@example(([[2, 3], [3, 2]], 2))
@example(([[-2]], 1))
@settings(max_examples=300, deadline=None)
def test_smith_normal_form_matches_its_former_body(case):
    a, ncols = case
    for keep in _KEEPS:
        assert la.smith_normal_form(a, ncols, keep) == \
            _former_smith_normal_form(a, ncols, keep), keep


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                max_size=4),
       st.lists(st.sampled_from([0, 0, 0, 1, -2, 5]), min_size=4,
                max_size=4))
@example([[1, 2, 3, 4]], [0, 0, 0, 0])
@example([], [0, 0, 0, 0])
@settings(max_examples=100, deadline=None)
def test_mat_vec_matches_the_dense_product(a, vec):
    """A zero vector, returned without a pass over the rows, among them."""
    assert la.mat_vec(a, vec) == [sum(x * y for x, y in zip(row, vec))
                                  for row in a]


@pytest.mark.parametrize("a,ncols", [([], 0), ([], 4), ([[], [], []], 0),
                                     ([[0, 0], [0, 0], [0, 0]], 2),
                                     ([[0, 0, 0]], 3)])
def test_smith_normal_form_of_nothing_is_single_entries(a, ncols):
    """With no pivot, each transform is the identity held as m (U and
    U^-1) or ncols (V) single entries, one per vector, and the diagonal
    has min(m, ncols) zeros."""
    m = len(a)
    diag, u, v, ui = la.smith_normal_form(a, ncols)
    assert diag == [0] * min(m, ncols)
    assert u == ui == [{i: 1} for i in range(m)]
    assert v == [{i: 1} for i in range(ncols)]


@st.composite
def _pivotless(draw):
    """An empty or all-zero matrix, 0-6 rows by 0-6 columns."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return la.zeros(m, n), n


@given(_pivotless())
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_without_a_pivot_matches_dense_oracle(case):
    """An empty or all-zero matrix returns before the pivot loop, with the
    diagonal and the three transforms the dense oracle gives for every keep
    subset: min(m, ncols) zeros and identities."""
    a, ncols = case
    _assert_kernel_matches_oracle(a, ncols)
    for keep in _KEEPS:
        d = _dense_snf_oracle(a, ncols, keep)[1]
        diag = la.smith_normal_form(a, ncols, keep)[0]
        assert diag == [d[i][i] for i in range(min(len(a), ncols))]


@pytest.mark.parametrize("keep,named", [
    ("vinv", "string 'vinv'"), ("v", "string 'v'"), (("v", "w"), "'w' in"),
    (["vinv", "U"], "'U' in"), (("u", "uinv", "vinverse"), "'vinverse' in"),
    (("vinv",), "'vinv' in")])
def test_smith_normal_form_refuses_unknown_keep(keep, named):
    """A bare string would be read letter by letter ("vinv" would also
    build V), and an unknown name, V^-1's former "vinv" among them, would
    leave its transform None."""
    with pytest.raises(ValueError, match=re.escape(named)):
        la.smith_normal_form([[1]], 1, keep=keep)


def test_empty_dimensions():
    u, d, v, ui = _snf([], 3)
    assert d == [] and v == la.identity(3)
    assert la.mat_mul([], []) == []
    assert la.row_basis([], 2) == []


def _fresh_solve_mod(a, ncols, b, lattice_rows):
    """The one-SNF-per-call solve_mod that a held `Lattice` replaced, as
    the oracle."""
    nrows = len(b)
    ext = [a[i][:] + [lattice_rows[k][i] for k in range(len(lattice_rows))]
           for i in range(nrows)]
    next_ = ncols + len(lattice_rows)
    u, d, v, _ = _snf(ext, next_)
    ub = la.mat_vec(u, b)
    y = [0] * next_
    diag = [d[i][i] for i in range(min(len(d), next_))]
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
    solver = la.Lattice(a, ncols, lat)
    for b in rhs:
        x = solver.solve(b)
        assert x == _fresh_solve_mod(a, ncols, b, lat)
        assert x == la.solve_mod(a, ncols, b, lat)
        if x is not None:
            diff = la.vec_sub(la.mat_vec(a, x), b)
            assert la.in_lattice(lat, len(b), diff)


def test_solver_rejects_a_wrong_length_right_hand_side():
    with pytest.raises(ValueError):
        la.Lattice([[1, 0], [0, 1]], 2).solve([1])


@pytest.mark.parametrize("n", [1, 3])
def test_every_lattice_question_refuses_the_wrong_length(n):
    """A vector or matrix with n rows, for a lattice on 2 coordinates, is
    a ValueError naming both lengths, also where the vector is zero or the
    lattice has no relations: it was read as if padded with zeros or cut,
    or raised IndexError."""
    message = "has %d (entries|rows), the lattice has 2 coordinates" % n
    for rels in ([[2, 0]], []):
        g = FinAbGroup(2, rels)
        lattice = g.lattice
        for vec in ([0] * n, [2] * n):
            for question in (g.contains_in_lattice, lattice.contains,
                             lattice.solve, lambda v: lattice.divide(1, v),
                             lambda v: lattice.preimage([[x] for x in v],
                                                        1)):
                with pytest.raises(ValueError, match=message):
                    question(vec)


def _dense_mat_vec(a, v):
    """The mat-vec over every column that `la.mat_vec` replaced."""
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


class _DenseSolver:
    """The former body of `la.Lattice.solve`, kept as its oracle: the rows
    of U, the diagonal and the first ncols rows of V, every product summed
    over every entry."""

    def __init__(self, a, ncols, lattice_rows=()):
        ext = [a[i][:] + [r[i] for r in lattice_rows] for i in range(len(a))]
        next_ = ncols + len(lattice_rows)
        u, d, v, _ = _snf(ext, next_, keep=("u", "v"))
        diag = [d[i][i] for i in range(min(len(d), next_))]
        rank = sum(1 for x in diag if x)
        self._pivots = list(zip(u[:rank], diag[:rank]))
        self._zero_rows = u[rank:]
        self._v = [row[:rank] for row in v[:ncols]]

    def solve(self, b):
        for row in self._zero_rows:
            if sum(map(mul, row, b)):
                return None
        ys = []
        for row, di in self._pivots:
            y, r = divmod(sum(map(mul, row, b)), di)
            if r:
                return None
            ys.append(y)
        return [sum(map(mul, row, ys)) for row in self._v]


_RHS_ENTRY = st.integers(-5, 5)


@st.composite
def _sparse_systems(draw):
    """(a, ncols, lattice rows, right-hand sides) shaped like the relation
    systems the library solves: 0-8 rows and columns and 0-3 lattice rows,
    a quarter of the cells or fewer nonzero, entries ±1 and ±2 (the bounds
    of `_snf_inputs`, for the same reason).  The
    right-hand sides are the zero vector, every unit vector, sparse ones
    with one or two nonzeros, dense ones, and images a x + lattice z, which
    are solvable."""
    m, n, nlat = (draw(st.integers(0, 8)), draw(st.integers(0, 8)),
                  draw(st.integers(0, 3)))
    a = _sparse_matrix(draw, m, n, [1, -1, 2, -2], m * n // 4 + 1)
    lat = _sparse_matrix(draw, nlat, m, [1, -1, 2, -2], nlat * m // 4 + 1)
    rhs = [[0] * m]
    rhs += [[int(i == j) for i in range(m)] for j in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        b = [0] * m
        for _ in range(draw(st.integers(1, 2))):
            if m:
                b[draw(st.integers(0, m - 1))] = draw(_RHS_ENTRY)
        rhs.append(b)
        rhs.append(draw(st.lists(_RHS_ENTRY, min_size=m, max_size=m)))
        x = draw(st.lists(_RHS_ENTRY, min_size=n, max_size=n))
        z = draw(st.lists(_RHS_ENTRY, min_size=nlat, max_size=nlat))
        rhs.append([_dense_mat_vec(a, x)[i]
                    + sum(lat[k][i] * z[k] for k in range(nlat))
                    for i in range(m)])
    return a, n, lat, rhs


@given(st.one_of(_systems(), _sparse_systems()))
@settings(max_examples=400, deadline=None)
def test_sparse_solver_matches_dense_body(system):
    """The same vector, or None, as the dense body for unit, zero, sparse
    and dense right-hand sides, and membership exactly where it solves.
    Mutations of the code this catches: dropping the zero test of the rows
    past the rank (a vector where the oracle has None), and skipping the
    division by a pivot."""
    a, ncols, lat, rhs = system
    m = len(a)
    rhs = rhs + [[0] * m] + [[int(i == j) for i in range(m)]
                             for j in range(m)]
    sparse, dense = la.Lattice(a, ncols, lat), _DenseSolver(a, ncols, lat)
    for b in rhs:
        x = dense.solve(b)
        assert sparse.solve(b) == x
        assert sparse.contains(b) == (x is not None)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mat_vec_matches_dense_body(data):
    """Equal integer vectors, zero and unit vectors included.  A mutation
    that drops the last nonzero entry of the vector fails it."""
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a = [data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
         for _ in range(m)]
    v = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 3, -7]),
                           min_size=n, max_size=n))
    assert la.mat_vec(a, v) == _dense_mat_vec(a, v)
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        assert la.mat_vec(a, unit) == _dense_mat_vec(a, unit)


def _former_in_lattice(rows, ncols, vec):
    """The former one-vector `in_lattice`: a fresh SNF per vector."""
    if all(x == 0 for x in vec):
        return True
    if not rows:
        return False
    return la.Lattice(la.transpose(rows, ncols), len(rows)).solve(vec) \
        is not None


def _former_lattices_equal(rows_a, rows_b, ncols):
    return (all(_former_in_lattice(rows_b, ncols, r) for r in rows_a)
            and all(_former_in_lattice(rows_a, ncols, r) for r in rows_b))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_in_lattice_answers_many_vectors_as_one_at_a_time(data):
    """One solver for every vector gives the per-vector answers of fresh
    SNFs: with no vectors, zero vectors, no rows and no columns, and on
    vectors drawn from the lattice, so both answers occur."""
    n = data.draw(st.integers(0, 4))
    entry = st.integers(-4, 4)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              max_size=3))
    vecs = data.draw(st.lists(st.one_of(
        st.lists(entry, min_size=n, max_size=n),
        st.just([0] * n),
        st.lists(st.integers(-3, 3), min_size=len(rows),
                 max_size=len(rows)).map(
            lambda c: la.mat_vec(la.transpose(rows, n), c))), max_size=4))
    assert la.in_lattice(rows, n, *vecs) == all(
        _former_in_lattice(rows, n, v) for v in vecs)
    other = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               max_size=3))
    for a, b in ((rows, other), (rows, rows + vecs), (vecs, rows)):
        assert lattices_equal(a, b, n) == _former_lattices_equal(a, b, n)


def test_in_lattice_edge_cases():
    assert la.in_lattice([], 2)
    assert la.in_lattice([], 2, [0, 0], [0, 0])
    assert not la.in_lattice([], 2, [0, 0], [1, 0])
    assert la.in_lattice([[2, 0], [0, 3]], 2, [4, 3], [0, 0], [2, 6])
    assert not la.in_lattice([[2, 0], [0, 3]], 2, [4, 3], [1, 0])
    assert la.in_lattice([[]], 0, [])
    assert lattices_equal([], [[0, 0]], 2)
    assert not lattices_equal([], [[1, 0]], 2)
