"""The tensor square, the reduced tensor square and the quadratic functor
as plain groups, against the wrapper classes they replaced.

The former bodies below (a tensor square holding its swap map, the reduced
square as the cokernel of 1 + swap, the quadratic functor holding its
pair index, and the level functor map that built both of its groups) are
kept as oracles.  A plain group must carry the same relation rows in the
same order, so every Smith normal form, and so every answer, is unchanged.
"""

import random

from hypothesis import given, settings, strategies as st

from secgroups import intlinalg as la
from secgroups.abelian import (AbMap, FinAbGroup, gamma,
                               gamma_into_tensor_square, gamma_map,
                               identity_map, reduced_tensor_square,
                               tensor_square, tensor_square_map,
                               tensor_square_relations, tensor_z2)
from secgroups.nil2 import (boundary_map, free_nil, level_gamma,
                            level_gamma_map, level_tensor_square)
from secgroups.selftest import _points, _random_hom
from secgroups.tracks import HopfTrack, whisker_left


# ---------------------------------------------------------------------------
# the former bodies
# ---------------------------------------------------------------------------

class _FormerTensorSquare:
    """Tensor square of a presented group, basis (i, j) lexicographic."""

    def __init__(self, base):
        n = base.ngens
        self.base = base
        self.group = FinAbGroup(n * n, tensor_square_relations(base))
        swap = la.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                swap[j * n + i][i * n + j] = 1
        self.swap = AbMap(self.group, self.group, swap, check=False)

    def index(self, i, j):
        return i * self.base.ngens + j


def _former_reduced_tensor_square(a):
    """(group, sigma, ts): the cokernel of 1 + swap on the tensor square."""
    ts = _FormerTensorSquare(a)
    grp, proj = (identity_map(ts.group) + ts.swap).cokernel()
    return grp, proj, ts


def _former_pair_index(k):
    idx = {}
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            idx[(i, j)] = pos
            pos += 1
    return idx


def _former_expand(vec, k, idx):
    out = [0] * (k * (k + 1) // 2)
    for i in range(k):
        out[i] = vec[i] * vec[i]
    for (i, j), p in idx.items():
        out[p] = vec[i] * vec[j]
    return out


def _former_cross(u, v, k, idx):
    out = [0] * (k * (k + 1) // 2)
    for i in range(k):
        out[i] = 2 * u[i] * v[i]
    for (i, j), p in idx.items():
        out[p] = u[i] * v[j] + u[j] * v[i]
    return out


class _FormerGamma:
    """Whitehead's quadratic functor computed from a presentation."""

    def __init__(self, base):
        k = base.ngens
        idx = _former_pair_index(k)
        rels = []
        for r in base.relations:
            rels.append(_former_expand(r, k, idx))
            for j in range(k):
                ej = [0] * k
                ej[j] = 1
                rels.append(_former_cross(r, ej, k, idx))
        self.k = k
        self.pair_index = idx
        self.group = FinAbGroup(k * (k + 1) // 2, rels)

    def into_tensor_square(self, ts):
        k = self.k
        m = la.zeros(k * k, self.group.ngens)
        for i in range(k):
            m[ts.index(i, i)][i] = 1
        for (i, j), p in self.pair_index.items():
            m[ts.index(i, j)][p] = 1
            m[ts.index(j, i)][p] = 1
        return AbMap(self.group, ts.group, m)


def _former_gamma_map(f, g_src, g_tgt):
    cols = []
    for i in range(g_src.k):
        img = [f.matrix[r][i] for r in range(g_tgt.k)]
        cols.append(_former_expand(img, g_tgt.k, g_tgt.pair_index))
    for (i, j), _ in sorted(g_src.pair_index.items(), key=lambda t: t[1]):
        u = [f.matrix[r][i] for r in range(g_tgt.k)]
        v = [f.matrix[r][j] for r in range(g_tgt.k)]
        cols.append(_former_cross(u, v, g_tgt.k, g_tgt.pair_index))
    m = la.transpose(cols, g_tgt.group.ngens)
    return AbMap(g_src.group, g_tgt.group, m)


def _former_tensor_z2(a):
    rels = list(a.relations)
    for i in range(a.ngens):
        r = [0] * a.ngens
        r[i] = 2
        rels.append(r)
    return FinAbGroup(a.ngens, rels)


def _former_level_gamma_map(n, f):
    """The former body, which built the functor of f's source afresh."""
    if n == 2:
        return _former_gamma_map(f, _FormerGamma(f.source),
                                 _FormerGamma(f.target))
    return AbMap(_former_tensor_z2(f.source), _former_tensor_z2(f.target),
                 f.matrix)


# ---------------------------------------------------------------------------
# strategies: groups with relations, and well-defined maps between them
# ---------------------------------------------------------------------------

_ENTRY = st.integers(-4, 4)


def _rows(draw, count, n):
    return [draw(st.lists(_ENTRY, min_size=n, max_size=n))
            for _ in range(count)]


@st.composite
def _groups(draw):
    """1-2 generators and 1-3 relation rows, some of them zero.  Two
    generators at most, because the dense Smith normal form lets its
    entries explode on some tensor squares of groups on three (ROADMAP
    item 6), and these tests are about relation rows, not that SNF."""
    n = draw(st.integers(1, 2))
    return FinAbGroup(n, _rows(draw, draw(st.integers(1, 3)), n))


@st.composite
def _maps(draw):
    """f: A -> B with A drawn by `_groups`; B's relations are the images
    of A's, which makes f well defined, then 0-2 more rows."""
    a = draw(_groups())
    nb = draw(st.integers(1, 2))
    m = _rows(draw, nb, a.ngens)
    rels = [la.mat_vec(m, r) for r in a.relations]
    b = FinAbGroup(nb, rels + _rows(draw, draw(st.integers(0, 2)), nb))
    return AbMap(a, b, m)


# ---------------------------------------------------------------------------
# same relation rows, same matrices
# ---------------------------------------------------------------------------

@given(_groups())
@settings(max_examples=150, deadline=None)
def test_the_squares_have_the_former_relation_rows(a):
    sq, former = tensor_square(a), _FormerTensorSquare(a)
    assert sq.relations == former.group.relations
    grp, sigma = reduced_tensor_square(a)
    f_grp, f_sigma, f_ts = _former_reduced_tensor_square(a)
    assert grp.relations == f_grp.relations
    assert sigma.matrix == f_sigma.matrix
    assert sigma.source.relations == f_ts.group.relations
    assert grp.invariant_factors == f_grp.invariant_factors
    for n in (2, 3):
        lts, from_plain = level_tensor_square(n, a)
        want = former.group if n == 2 else f_grp
        assert lts.relations == want.relations
        assert from_plain.source.relations == former.group.relations
        assert from_plain.matrix == la.identity(a.ngens ** 2)


@given(_groups())
@settings(max_examples=150, deadline=None)
def test_gamma_has_the_former_relation_rows(a):
    g, former = gamma(a), _FormerGamma(a)
    assert g.relations == former.group.relations
    inc = former.into_tensor_square(_FormerTensorSquare(a))
    assert gamma_into_tensor_square(a.ngens) == inc.matrix
    gam, lin = level_gamma(2, a)
    assert gam.relations == former.group.relations
    assert lin.matrix == inc.matrix
    assert tensor_z2(a).relations == _former_tensor_z2(a).relations


@given(_maps())
@settings(max_examples=150, deadline=None)
def test_level_gamma_map_matches_the_former_two_gamma_map(f):
    for n in (2, 3):
        got = level_gamma_map(n, f, level_gamma(n, f.source)[0])
        want = _former_level_gamma_map(n, f)
        assert got.matrix == want.matrix
        assert got.source.relations == want.source.relations
        assert got.target.relations == want.target.relations
    g_src, g_tgt = gamma(f.source), gamma(f.target)
    assert gamma_map(f, g_src, g_tgt).matrix == _former_gamma_map(
        f, _FormerGamma(f.source), _FormerGamma(f.target)).matrix


def _unit_track(rng, n, src, tgt):
    """A track into tgt whose measure is the identity matrix, so src has
    one letter per generator of the level tensor square on tgt's."""
    lts, bmap, _, _ = boundary_map(n, tgt)
    phi = _random_hom(rng, src, tgt)
    imgs = [phi.eval(src.generator(i))
            * tgt.central([row[i] for row in bmap.matrix])
            for i in range(lts.ngens)]
    psi = src.free_hom(tgt, imgs, check=False)
    alpha = AbMap(FinAbGroup(lts.ngens), lts, la.identity(lts.ngens),
                  check=False)
    return HopfTrack(n, phi, psi, alpha)


@given(st.integers(1, 2), st.integers(1, 3), st.sampled_from([2, 3]),
       st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_whisker_left_kronecker_matrix_is_tensor_square_maps(kb, kc, n,
                                                            seed):
    """Whiskering a track whose measure is the identity reads off the
    matrix whisker_left pushes measures along: it must be the matrix of
    `tensor_square_map` on the abelianization, at every level."""
    rng = random.Random(seed)
    b, c = free_nil(_points(kb)), free_nil(_points(kc))
    track = _unit_track(rng, n, free_nil(_points(kb * kb)), b)
    h = _random_hom(rng, b, c)
    w = whisker_left(h, track)
    w.validate()
    tmap = tensor_square_map(h.q_map(), tensor_square(b.q),
                             tensor_square(c.q))
    assert w.alpha.matrix == tmap.matrix
