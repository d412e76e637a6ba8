"""Finitely generated abelian groups given by integer presentations.

A `FinAbGroup` is Z^n modulo the row lattice of a relation matrix.  Nothing
is ever reduced to a "nicer" presentation behind the caller's back: elements
keep their coefficient vectors.  A group holds the Smith certificate of
its relation lattice, `lattice` (`intlinalg.Lattice`), built once:
membership (element equality, well-definedness of maps), division,
element lists and preimages into the relation lattice read it with no
further SNF, as a map's held `solver()` answers them for its image plus
the target relations.

`AbMap` is a homomorphism given by its matrix on generators (columns are
images).  Construction checks well-definedness: every source relation must
land in the target relation lattice.  Kernels and cokernels come back as
new groups together with the inclusion / projection map.  A map holds its
kernel basis once read (`kernel_basis`): injectivity tests it against the
source's certificate, and `exact` against the incoming map's held
`solver()`, so only `kernel` (and `nil2.hom_kernel` through it) builds a
kernel group.

The quadratic functors live here too, each a plain `FinAbGroup` on a
documented basis: the tensor square (e_i (x) e_j at index i*n + j), the
reduced tensor square (the tensor square modulo x (x) y + y (x) x, with its
projection from the plain one), Whitehead's quadratic functor built from a
presentation (gamma(e_i), then [e_i, e_j] for i < j, with the matrix of
its natural map into the tensor square), and A (x) Z/2, used at levels
three and up.
"""

from __future__ import annotations

from . import intlinalg as la


class FinAbGroup:
    """Z^ngens modulo the row lattice of `relations`."""

    def __init__(self, ngens: int, relations=()):
        self.ngens = ngens
        rels = []
        for r in relations:
            r = list(r)
            if len(r) != ngens:
                raise ValueError("relation length %d != ngens %d" % (len(r), ngens))
            rels.append(r)
        self.relations = rels
        # the Smith certificate of the relation lattice, spanned by the
        # relation rows alone (no map columns: ngens empty rows), so its
        # SNF runs on R^T, which has the invariant factors of R
        self.lattice = la.Lattice([[]] * ngens, 0, rels)
        moduli = self.lattice.moduli
        self.free_rank = moduli.count(0)
        self.invariant_factors = tuple(x for x in moduli if x > 1)

    # -- structure ---------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def same_presentation(self, other: "FinAbGroup") -> bool:
        """Is other this group, or a group on as many generators with the
        same relation rows in the same order?  Elements of the two are then
        vectors modulo one lattice."""
        return self is other or (self.ngens == other.ngens
                                 and self.relations == other.relations)

    def is_isomorphic_to(self, other: "FinAbGroup") -> bool:
        return (self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def __repr__(self):
        parts = ["Z/%d" % f for f in self.invariant_factors]
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        return "FinAbGroup(%s)" % (" + ".join(parts) if parts else "0")

    # -- elements ----------------------------------------------------------

    def element(self, coeffs) -> "AbElem":
        return AbElem(self, list(coeffs))

    def zero(self) -> "AbElem":
        return AbElem(self, [0] * self.ngens)

    def contains_in_lattice(self, vec) -> bool:
        """Does vec lie in the relation lattice?"""
        return self.lattice.contains(list(vec))

    def elements(self):
        """Iterate over all elements (requires the group to be finite)."""
        for vec in self.lattice.representatives():
            yield AbElem(self, vec)


class AbElem:
    """An element of a FinAbGroup, kept as a raw coefficient vector."""

    def __init__(self, group: FinAbGroup, vec: list[int]):
        if len(vec) != group.ngens:
            raise ValueError("bad element length")
        self.group = group
        self.vec = list(vec)

    def _check_same_group(self, other):
        if not self.group.same_presentation(other.group):
            raise ValueError("elements of different groups: %r and %r"
                             % (self.group, other.group))

    def __add__(self, other):
        self._check_same_group(other)
        return AbElem(self.group, la.vec_add(self.vec, other.vec))

    def __sub__(self, other):
        self._check_same_group(other)
        return AbElem(self.group, la.vec_sub(self.vec, other.vec))

    def __neg__(self):
        return AbElem(self.group, [-x for x in self.vec])

    def __rmul__(self, k: int):
        return AbElem(self.group, la.vec_scale(k, self.vec))

    def is_zero(self) -> bool:
        return self.group.contains_in_lattice(self.vec)

    def __eq__(self, other):
        if not isinstance(other, AbElem):
            return NotImplemented
        if not self.group.same_presentation(other.group):
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("AbElem is unhashable; equality is modulo relations")

    def __repr__(self):
        return "AbElem(%r)" % (self.vec,)


class AbMap:
    """Homomorphism of FinAbGroups; matrix columns are generator images.
    Maps whose sources or targets differ (`same_presentation`) are never
    equal, and their sum or difference raises `ValueError`."""

    def __init__(self, source: FinAbGroup, target: FinAbGroup, matrix,
                 check: bool = True):
        self.source = source
        self.target = target
        self.matrix = [list(r) for r in matrix]
        self._solver = None  # built by the first solver()
        self._kernel_basis = None  # held by the first kernel_basis()
        if len(self.matrix) != target.ngens or any(
                len(r) != source.ngens for r in self.matrix):
            raise ValueError("matrix shape must be target.ngens x source.ngens")
        if check:
            for rel in source.relations:
                img = la.mat_vec(self.matrix, rel)
                if not target.contains_in_lattice(img):
                    raise ValueError("map not well defined: relation %r" % (rel,))

    # -- evaluation and algebra --------------------------------------------

    def __call__(self, x) -> AbElem:
        vec = x.vec if isinstance(x, AbElem) else list(x)
        return AbElem(self.target, la.mat_vec(self.matrix, vec))

    def compose(self, other: "AbMap") -> "AbMap":
        """self after other; through a group with no generators it is the
        zero map, whose columns the empty middle matrix cannot show."""
        if not other.matrix:
            return zero_map(other.source, self.target)
        return AbMap(other.source, self.target,
                     la.mat_mul(self.matrix, other.matrix), check=False)

    def _check_same_groups(self, other: "AbMap"):
        if not (self.source.same_presentation(other.source)
                and self.target.same_presentation(other.target)):
            raise ValueError("maps between different groups: %r -> %r and "
                             "%r -> %r" % (self.source, self.target,
                                           other.source, other.target))

    def __add__(self, other: "AbMap") -> "AbMap":
        self._check_same_groups(other)
        m = [la.vec_add(a, b) for a, b in zip(self.matrix, other.matrix)]
        return AbMap(self.source, self.target, m, check=False)

    def __sub__(self, other: "AbMap") -> "AbMap":
        self._check_same_groups(other)
        m = [la.vec_sub(a, b) for a, b in zip(self.matrix, other.matrix)]
        return AbMap(self.source, self.target, m, check=False)

    def __eq__(self, other):
        if not isinstance(other, AbMap):
            return NotImplemented
        # maps between other groups are never equal, as for `AbElem`: the
        # test below runs in self.target's lattice alone
        if not (self.source.same_presentation(other.source)
                and self.target.same_presentation(other.target)):
            return False
        for j in range(self.source.ngens):
            col = [self.matrix[i][j] - other.matrix[i][j]
                   for i in range(self.target.ngens)]
            if not self.target.contains_in_lattice(col):
                return False
        return True

    def __hash__(self):
        raise TypeError("AbMap is unhashable")

    def is_zero(self) -> bool:
        return self == zero_map(self.source, self.target)

    # -- kernel / cokernel ---------------------------------------------------

    def kernel_basis(self) -> list[list[int]]:
        """A basis of {x : f(x) in the relation lattice of the target},
        which contains the source relations, read off the target's
        certificate on first use and held.  Injectivity, exactness and
        `kernel` read it; only `kernel` builds a group from it.  Every call
        returns the held list itself, so callers read it and never change
        it or its rows."""
        if self._kernel_basis is None:
            self._kernel_basis = self.target.lattice.preimage(
                self.matrix, self.source.ngens)
        return self._kernel_basis

    def kernel(self):
        """(K, incl) with incl: K -> source an injection onto the kernel;
        the columns of incl are the vectors of `kernel_basis`."""
        src = self.source
        basis = self.kernel_basis()
        k = len(basis)
        bt = la.transpose(basis, src.ngens)  # src.ngens x k, columns = basis
        kgroup = FinAbGroup(k, la.sub_basis_coordinates(bt, k, src.relations))
        incl = AbMap(kgroup, src, bt, check=False)
        return kgroup, incl

    def cokernel(self):
        """(C, proj) with proj: target -> C the quotient map."""
        tgt = self.target
        cols = la.transpose(self.matrix, self.source.ngens)
        cgroup = FinAbGroup(tgt.ngens, tgt.relations + cols)
        proj = AbMap(tgt, cgroup, la.identity(tgt.ngens), check=False)
        return cgroup, proj

    def is_injective(self) -> bool:
        """Is the kernel trivial, i.e. does every `kernel_basis` vector lie
        in the source's relation lattice?  No kernel group is built."""
        return all(self.source.contains_in_lattice(x)
                   for x in self.kernel_basis())

    def is_surjective(self) -> bool:
        return self.cokernel()[0].is_trivial()

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def solver(self) -> la.Lattice:
        """The Smith certificate of this map modulo the target relations,
        built on first use and held: it solves preimages, and its lattice,
        the image plus the relations, answers `preimage`."""
        if self._solver is None:
            self._solver = la.Lattice(self.matrix, self.source.ngens,
                                      self.target.relations)
        return self._solver

    def preimage(self, y):
        """One x with f(x) == y, or None."""
        vec = y.vec if isinstance(y, AbElem) else list(y)
        sol = self.solver().solve(vec)
        if sol is None:
            return None
        return AbElem(self.source, sol)

    def __repr__(self):
        return "AbMap(%r -> %r, %r)" % (self.source, self.target, self.matrix)


def identity_map(g: FinAbGroup) -> AbMap:
    return AbMap(g, g, la.identity(g.ngens), check=False)


def zero_map(source: FinAbGroup, target: FinAbGroup) -> AbMap:
    return AbMap(source, target, la.zeros(target.ngens, source.ngens), check=False)


def exact(f_in: AbMap, f_out: AbMap) -> bool:
    """Exactness at the middle group of f_in, f_out: the image of f_in and
    the kernel of f_out span one lattice modulo the middle's relations.
    A ValueError unless f_out starts where f_in ends (`same_presentation`).

    The image lies in the kernel when f_out after f_in lands in the
    relation lattice of f_out's target (its held certificate, no SNF), and
    the kernel in the image when every `kernel_basis` vector of f_out
    solves against `f_in.solver()`, whose span is the image plus the
    middle's relations: at most two SNFs.  This assumes f_out is well
    defined, so that the middle's relations lie in its kernel, as every
    map the library builds is; for a map built unchecked that breaks a
    relation the answer may differ from a comparison of the lattices."""
    mid = f_in.target
    if not mid.same_presentation(f_out.source):
        raise ValueError("maps do not meet: the first ends in %r, the "
                         "second starts in %r" % (mid, f_out.source))
    tgt = f_out.target
    if not all(tgt.contains_in_lattice(la.mat_vec(f_out.matrix, col))
               for col in la.transpose(f_in.matrix, f_in.source.ngens)):
        return False
    return all(map(f_in.solver().contains, f_out.kernel_basis()))


def direct_sum(a: FinAbGroup, b: FinAbGroup):
    """(A + B, incl_a, incl_b, proj_a, proj_b)."""
    n = a.ngens + b.ngens
    rels = [r + [0] * b.ngens for r in a.relations]
    rels += [[0] * a.ngens + r for r in b.relations]
    g = FinAbGroup(n, rels)
    ia = la.zeros(n, a.ngens)
    for i in range(a.ngens):
        ia[i][i] = 1
    ib = la.zeros(n, b.ngens)
    for i in range(b.ngens):
        ib[a.ngens + i][i] = 1
    pa = la.zeros(a.ngens, n)
    for i in range(a.ngens):
        pa[i][i] = 1
    pb = la.zeros(b.ngens, n)
    for i in range(b.ngens):
        pb[i][a.ngens + i] = 1
    return (g, AbMap(a, g, ia, check=False), AbMap(b, g, ib, check=False),
            AbMap(g, a, pa, check=False), AbMap(g, b, pb, check=False))


# ---------------------------------------------------------------------------
# tensor square and friends
# ---------------------------------------------------------------------------

def tensor_square_relations(a: FinAbGroup) -> list[list[int]]:
    """Relation rows of the tensor square of a: u (x) e_j and e_j (x) u for
    every relation u of a and every generator j, in that order."""
    n = a.ngens
    rows = []
    for r in a.relations:
        for j in range(n):
            ej = [0] * n
            ej[j] = 1
            rows.append(la.kron(r, ej))
            rows.append(la.kron(ej, r))
    return rows


def tensor_square(a: FinAbGroup) -> FinAbGroup:
    """The tensor square of a presented group on n generators: Z^(n*n),
    e_i (x) e_j at index i*n + j, modulo `tensor_square_relations(a)`.
    The swap x (x) y -> y (x) x permutes that basis, (i, j) to (j, i)."""
    n = a.ngens
    return FinAbGroup(n * n, tensor_square_relations(a))


def tensor_square_map(f: AbMap, sq_src: FinAbGroup,
                      sq_tgt: FinAbGroup) -> AbMap:
    """f (x) f, the Kronecker square of f's matrix, between the tensor
    squares of f's source and target, or any groups on their basis."""
    n_s, n_t = f.source.ngens, f.target.ngens
    m = la.kron_matrix(f.matrix, n_t, n_s, f.matrix, n_t, n_s)
    return AbMap(sq_src, sq_tgt, m, check=False)


def reduced_tensor_square(a: FinAbGroup):
    """(group, sigma) killing x (x) y + y (x) x: the tensor square's
    relations, then e_{i*n+j} + e_{j*n+i} for every (i, j) in row-major
    order, duplicates kept (the columns of 1 + swap); sigma is the
    identity matrix out of the plain tensor square, `sigma.source`."""
    sq = tensor_square(a)
    n = a.ngens
    sym = la.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            sym[i * n + j][i * n + j] += 1
            sym[i * n + j][j * n + i] += 1
    grp = FinAbGroup(n * n, sq.relations + sym)
    return grp, AbMap(sq, grp, la.identity(n * n), check=False)


# ---------------------------------------------------------------------------
# quadratic functor from a presentation
# ---------------------------------------------------------------------------

def _gamma_basis_size(k: int) -> int:
    return k * (k + 1) // 2


def _gamma_pair_index(k: int):
    """Index map for the free quadratic group on k generators.

    Basis: gamma(e_0)..gamma(e_{k-1}) then cross terms [e_i, e_j] for i < j.
    """
    idx = {}
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            idx[(i, j)] = pos
            pos += 1
    return idx


def _gamma_expand(vec: list[int], k: int, idx) -> list[int]:
    """Coefficients of gamma(sum a_i e_i) in the free quadratic basis."""
    out = [0] * _gamma_basis_size(k)
    for i in range(k):
        out[i] = vec[i] * vec[i]
    for (i, j), p in idx.items():
        out[p] = vec[i] * vec[j]
    return out


def _gamma_cross(u: list[int], v: list[int], k: int, idx) -> list[int]:
    """Coefficients of the bilinear cross term [u, v]."""
    out = [0] * _gamma_basis_size(k)
    for i in range(k):
        out[i] = 2 * u[i] * v[i]
    for (i, j), p in idx.items():
        out[p] = u[i] * v[j] + u[j] * v[i]
    return out


def gamma(a: FinAbGroup) -> FinAbGroup:
    """Whitehead's quadratic functor of a presented group on k generators,
    on the basis of `_gamma_pair_index`: gamma(r) and [r, e_j] for every
    relation r and generator j, in that order."""
    k = a.ngens
    idx = _gamma_pair_index(k)
    rels = []
    for r in a.relations:
        rels.append(_gamma_expand(r, k, idx))
        for j in range(k):
            ej = [0] * k
            ej[j] = 1
            rels.append(_gamma_cross(r, ej, k, idx))
    return FinAbGroup(_gamma_basis_size(k), rels)


def gamma_into_tensor_square(k: int) -> list[list[int]]:
    """The matrix of gamma(x) -> x (x) x on k generators: gamma(e_i) to
    e_i (x) e_i, [e_i, e_j] to e_i (x) e_j + e_j (x) e_i."""
    m = la.zeros(k * k, _gamma_basis_size(k))
    for i in range(k):
        m[i * k + i][i] = 1
    for (i, j), p in _gamma_pair_index(k).items():
        m[i * k + j][p] = 1
        m[j * k + i][p] = 1
    return m


def gamma_map(f: AbMap, g_src: FinAbGroup, g_tgt: FinAbGroup) -> AbMap:
    """Functoriality of the quadratic functor: gamma(f) between the groups
    `gamma` gives f's source and target."""
    k_s, k_t = f.source.ngens, f.target.ngens
    idx_t = _gamma_pair_index(k_t)
    cols = []
    for i in range(k_s):
        img = [f.matrix[r][i] for r in range(k_t)]
        cols.append(_gamma_expand(img, k_t, idx_t))
    for i, j in _gamma_pair_index(k_s):
        u = [f.matrix[r][i] for r in range(k_t)]
        v = [f.matrix[r][j] for r in range(k_t)]
        cols.append(_gamma_cross(u, v, k_t, idx_t))
    m = la.transpose(cols, g_tgt.ngens)
    return AbMap(g_src, g_tgt, m)


# ---------------------------------------------------------------------------
# mod-2 variants used at level >= 3
# ---------------------------------------------------------------------------

def tensor_z2(a: FinAbGroup) -> FinAbGroup:
    """A (x) Z/2 on A's generators: A's relations, then 2 e_i for each i."""
    rels = list(a.relations)
    for i in range(a.ngens):
        r = [0] * a.ngens
        r[i] = 2
        rels.append(r)
    return FinAbGroup(a.ngens, rels)
