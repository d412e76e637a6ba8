"""Nilpotency class two groups as central extensions with bilinear cocycles.

A `Class2Group` is a central extension of an abelian quotient layer Q by a
central layer C.  The data is a commutator pairing `lam` and a bilinear
cocycle `beta`, both maps from the tensor square of Q into C, with
lam = beta - beta o swap.  Elements are pairs (q, c) multiplied by

    (q, c) * (q', c') = (q + q', c + c' + beta(q (x) q'))

so all word problems reduce to exact integer linear algebra.  Commutators
are written additively in the group-theory convention [x, y] = -x-y+x+y.

Every ordered product of powers of x_k = (q_k, c_k) is collected by one
closed form, `Class2Group.power_product`, with p_k = sum_{j<k} a_j q_j:

    prod_k x_k^a_k = (sum a_k q_k, sum [a_k c_k + binom(a_k, 2)
                      beta(q_k (x) q_k) + beta(p_k (x) a_k q_k)]).

`lam` and `beta` are stored dense, one row per central generator and one
column per pair (i, j) of Q generators, and that is the form every reader
of the matrices sees.  They are evaluated through their nonzeros only,
indexed once per group by first index: a free class-2 group has one nonzero
per central generator, an abelian group viewed as class two has none.

Homomorphisms are stored as generator images plus a map on the central
layer; construction checks that map on the C relations, commutator
compatibility on generator pairs i > j and representative independence on
the Q relations, which suffices in class two because every obstruction term
is bilinear.  A hom given by its values on `generators()` is built by
`hom_from_values` and nothing else: a C generator's value must be central
(its Q part in the target's relation lattice), and its central part is that
generator's column of the central-layer map.

The free objects here are `free_nil` (free class-2 group on a pointed set,
with the strictly upper triangular cocycle convention fixing the orientation
a ^ b = lam(a (x) b) for generator indices i < j) and `nilize`, which
collects an arbitrary free word into its normal form.  The way back, an
element spelled as letters, is `Class2Group.letters` and nothing else: it
solves the central residue against `lam` through a solver the group builds
once.

Subgroups, normal closures, quotients, and kernels/cokernels of
homomorphisms are computed lattice-by-lattice; a quotient whose cocycle
fails to descend raises `QuotientError` instead of silently answering.
`hom_kernel` and `hom_cokernel` build their pair on the first call for a
hom and hold it there, so every later call for the same hom returns it.
"""

from __future__ import annotations

from . import intlinalg as la
from .abelian import (AbMap, FinAbGroup, gamma, gamma_map, identity_map,
                      reduced_tensor_square, tensor_square, tensor_z2,
                      zero_map)
from .words import PointedSet, Word


class QuotientError(ValueError):
    """Raised when a quotient does not carry a bilinear cocycle."""


def _binom2(a: int) -> int:
    return a * (a - 1) // 2


class Class2Group:
    """Central extension of abelian Q by central C with bilinear cocycle.

    It is also the base group of a level-n object, and shares that
    interface with `crossed.FreeGroupBase`: `gen_names`, `generator`,
    `generators`, `identity`, `letters`, `elements`, `is_free`, `free_hom`,
    `nilization`, and the homotopy groups `h0_of`/`h1_of` of a boundary.
    """

    # set by free_nil: the central generator of each commutator [e_i, e_j]
    # for i < j, keyed (i, j) in the order of the central generators
    wedge_index = None
    # set by letters on first use: the held solver of lam modulo C
    _lam_solver = None
    # set by underlying_ab on first use
    _underlying_ab = None

    def __init__(self, q: FinAbGroup, c: FinAbGroup,
                 lam_matrix, beta_matrix, gen_names=None, check: bool = True):
        self.q = q
        self.c = c
        nq, nc = q.ngens, c.ngens
        self.lam = [list(r) for r in lam_matrix]
        self.beta = [list(r) for r in beta_matrix]
        if len(self.lam) != nc or any(len(r) != nq * nq for r in self.lam):
            raise ValueError("lam must be c.ngens x q.ngens^2")
        if len(self.beta) != nc or any(len(r) != nq * nq for r in self.beta):
            raise ValueError("beta must be c.ngens x q.ngens^2")
        self.gen_names = list(gen_names) if gen_names else [
            "x%d" % i for i in range(nq)]
        self._lam_terms = _nonzero_terms(self.lam, nq)
        self._beta_terms = _nonzero_terms(self.beta, nq)
        self._gens = [self.generator(i) for i in range(nq)]
        if check:
            self._validate()

    def _validate(self):
        nq, nc = self.q.ngens, self.c.ngens
        # a pair (i, j) where lam and beta vanish at (i, j) and (j, i) tests
        # two zero vectors, which lie in every lattice, so it is skipped
        support = _support(self._lam_terms) | _support(self._beta_terms)
        for i, j in sorted(support | {(j, i) for i, j in support}):
            anti = [self.lam[r][i * nq + j] + self.lam[r][j * nq + i]
                    for r in range(nc)]
            if not self.c.contains_in_lattice(anti):
                raise ValueError("lam not alternating at (%d,%d)" % (i, j))
            delta = [self.beta[r][i * nq + j] - self.beta[r][j * nq + i]
                     - self.lam[r][i * nq + j] for r in range(nc)]
            if not self.c.contains_in_lattice(delta):
                raise ValueError("beta - beta o swap != lam at (%d,%d)" % (i, j))
        # the pairing must descend through the Q relations
        for rel in self.q.relations:
            for j in range(self.q.ngens):
                ej = [0] * self.q.ngens
                ej[j] = 1
                for u, v in ((rel, ej), (ej, rel)):
                    if not self.c.contains_in_lattice(self.beta_eval(u, v)):
                        raise ValueError("cocycle not defined modulo relations")

    # -- evaluation ----------------------------------------------------------

    def beta_eval(self, qu, qv) -> list[int]:
        return _pairing(self._beta_terms, [0] * self.c.ngens, qu, qv)

    def lam_eval(self, qu, qv) -> list[int]:
        return _pairing(self._lam_terms, [0] * self.c.ngens, qu, qv)

    # -- element constructors -------------------------------------------------

    def element(self, qvec, cvec=None) -> "Class2Elem":
        if cvec is None:
            cvec = [0] * self.c.ngens
        return Class2Elem(self, list(qvec), list(cvec))

    def identity(self) -> "Class2Elem":
        return self.element([0] * self.q.ngens)

    def generator(self, i: int) -> "Class2Elem":
        qv = [0] * self.q.ngens
        qv[i] = 1
        return self.element(qv)

    def central(self, cvec) -> "Class2Elem":
        return Class2Elem(self, [0] * self.q.ngens, list(cvec))

    def central_generator(self, j: int) -> "Class2Elem":
        cv = [0] * self.c.ngens
        cv[j] = 1
        return self.central(cv)

    def generators(self):
        """Group generators: all Q generators, then all C generators."""
        return ([self.generator(i) for i in range(self.q.ngens)]
                + [self.central_generator(j) for j in range(self.c.ngens)])

    # -- structure -------------------------------------------------------------

    def power_product(self, elems, exps) -> "Class2Elem":
        """The ordered product of powers x_1^a_1 ... x_m^a_m, collected by
        the closed form of the module docstring with one running prefix."""
        beta = self._beta_terms
        prefix = [0] * self.q.ngens
        out = [0] * self.c.ngens
        for x, a in zip(elems, exps):
            if a:
                aq = [a * v for v in x.qvec]
                for r, v in enumerate(x.cvec):
                    out[r] += a * v
                _pairing(beta, out, x.qvec, x.qvec, _binom2(a))
                _pairing(beta, out, prefix, aq)
                prefix = la.vec_add(prefix, aq)
        return Class2Elem(self, prefix, out)

    def ordered_product_element(self, qvec) -> "Class2Elem":
        """The ordered product of generator powers e_1^q_1 ... e_n^q_n."""
        return self.power_product(self._gens, qvec)

    def collect_central(self, qvec) -> list[int]:
        """Central part of the ordered product of generator powers for qvec."""
        return self.ordered_product_element(qvec).cvec

    def commutator_support(self) -> set[tuple[int, int]]:
        """The pairs (i, j) of Q generators whose commutator, the column
        (i, j) of lam, is not the zero vector."""
        return _support(self._lam_terms)

    def is_abelian(self) -> bool:
        """Whether every column of lam lies in the C relation lattice; only
        the nonzero columns are tested, as a zero one lies in every lattice."""
        cols = {}
        for i, row in self._lam_terms:
            for j, r, coeff in row:
                cols.setdefault((i, j), [0] * self.c.ngens)[r] = coeff
        return all(self.c.contains_in_lattice(col) for col in cols.values())

    def is_trivial(self) -> bool:
        return self.q.is_trivial() and self.c.is_trivial()

    def order(self):
        qo, co = self.q.order(), self.c.order()
        if qo is None or co is None:
            return None
        return qo * co

    def elements(self):
        for qe in self.q.elements():
            for ce in self.c.elements():
                yield Class2Elem(self, qe.vec, ce.vec)

    def underlying_ab(self):
        """The underlying abelian group (only when the group is abelian).

        Generators: the Q generators followed by the C generators.  Each Q
        relation r picks up the central defect of the ordered product for r.
        Built on the first call and held on the group.
        """
        if self._underlying_ab is None:
            if not self.is_abelian():
                raise ValueError("underlying_ab needs an abelian group")
            nq, nc = self.q.ngens, self.c.ngens
            rels = [[0] * nq + r for r in self.c.relations]
            for r in self.q.relations:
                c0 = self.collect_central(r)
                rels.append(list(r) + [-x for x in c0])
            self._underlying_ab = FinAbGroup(nq + nc, rels)
        return self._underlying_ab

    def abelianization(self):
        """(G_ab as FinAbGroup, pair-to-vector coordinate map).

        G_ab is the quotient by the commutator subgroup, i.e. by the image
        of lam inside the central layer.
        """
        nq, nc = self.q.ngens, self.c.ngens
        extra = la.transpose(self.lam, nq * nq)
        cq = FinAbGroup(nc, self.c.relations + extra)
        ab = Class2Group(self.q, cq, la.zeros(nc, nq * nq), self.beta,
                         self.gen_names, check=False)
        return ab.underlying_ab()

    # -- as a base group ------------------------------------------------------

    def letters(self, elem) -> list[tuple[int, int]]:
        """The (generator index, exponent) letters of a word for elem: its
        Q part, then the commutators that make up its central residue,
        solved against `lam` through one solver held on the group."""
        out = [(i, a) for i, a in enumerate(elem.qvec) if a]
        resid = la.vec_sub(elem.cvec, self.collect_central(elem.qvec))
        if not any(resid):
            return out
        nq = self.q.ngens
        if self._lam_solver is None:
            self._lam_solver = la.Solver(self.lam, nq ** 2, self.c.relations)
        sol = self._lam_solver.solve(resid)
        if sol is None:
            raise ValueError("central base element outside commutators")
        for p, a in enumerate(sol):
            i, j = divmod(p, nq)
            seq = [(i, -1), (j, -1), (i, 1), (j, 1)] if a > 0 else \
                [(j, -1), (i, -1), (j, 1), (i, 1)]
            out.extend(seq * abs(a))
        return out

    def is_free(self) -> bool:
        """Whether this is a free class-2 group (built by free_nil)."""
        return self.wedge_index is not None

    def free_hom(self, target: "Class2Group", gen_images,
                 check: bool = True) -> "Class2Hom":
        """The hom with these generator images whose central-layer map is
        forced by commutators: the wedge generator e_i ^ e_j of a free
        class-2 group goes to the commutator of the images of e_i and e_j.
        A group without central layer is served as well."""
        pairs = list(self.wedge_index or ())
        if len(pairs) != self.c.ngens:
            raise ValueError("generator images do not force the central "
                             "layer of a group that is not free")
        return hom_from_values(self, target, list(gen_images) + [
            gen_images[i].commutator(gen_images[j]) for i, j in pairs],
            check=check)

    def nilization(self):
        """(class-2 group, map from this base): the identity here."""
        return self, identity_hom(self)

    def h0_of(self, bnd: "Class2Hom") -> "Class2Group":
        """h0 of a boundary into this base: its cokernel."""
        return hom_cokernel(bnd)[0]

    def h1_of(self, bnd: "Class2Hom") -> FinAbGroup:
        """h1 of a boundary into this base: its kernel, which is abelian
        when the axioms hold."""
        k, _ = hom_kernel(bnd)
        if not k.is_abelian():
            raise ValueError("kernel of the boundary is not abelian; "
                             "axioms must be failing")
        return k.underlying_ab()

    def is_isomorphic_abstract(self, other: "Class2Group") -> bool:
        """Cheap invariant screen: abelianization plus commutator subgroup.

        A full answer needs an explicit map; `Class2Hom.is_isomorphism`
        provides it.  This screen is what the structural tests use when no
        canonical comparison map exists.
        """
        if not self.abelianization().is_isomorphic_to(other.abelianization()):
            return False
        mine = FinAbGroup(self.c.ngens, self.c.relations)
        # commutator subgroup = image of lam in C
        mc, _ = AbMap(tensor_square(self.q).group, mine, self.lam,
                      check=False).cokernel()
        theirs = FinAbGroup(other.c.ngens, other.c.relations)
        oc, _ = AbMap(tensor_square(other.q).group, theirs, other.lam,
                      check=False).cokernel()
        # compare central layers modulo commutators and commutator subgroups
        com_mine = _lattice_quotient_group(
            la.transpose(self.lam, self.q.ngens ** 2), self.c)
        com_theirs = _lattice_quotient_group(
            la.transpose(other.lam, other.q.ngens ** 2), other.c)
        return (mc.is_isomorphic_to(oc)
                and com_mine.is_isomorphic_to(com_theirs))

    def __repr__(self):
        return "Class2Group(Q=%r, C=%r)" % (self.q, self.c)


def _nonzero_terms(mat, nq: int):
    """The nonzeros of an nc x nq^2 pairing matrix, grouped by first index:
    [(i, [(j, r, coeff), ...]), ...] over the i that have any."""
    by_i = {}
    for r, row in enumerate(mat):
        for p, coeff in enumerate(row):
            if coeff:
                i, j = divmod(p, nq)
                by_i.setdefault(i, []).append((j, r, coeff))
    return sorted(by_i.items())


def _support(terms) -> set[tuple[int, int]]:
    """The pairs (i, j) whose column of the pairing matrix is nonzero."""
    return {(i, j) for i, row in terms for j, _, _ in row}


def _pairing(terms, out: list[int], qu, qv, scale: int = 1) -> list[int]:
    """Add scale * coeff * qu[i] * qv[j] over the nonzero terms to out."""
    if scale:
        for i, row in terms:
            a = qu[i]
            if a:
                a *= scale
                for j, r, coeff in row:
                    out[r] += coeff * a * qv[j]
    return out


def abelian_as_class2(a: FinAbGroup, gen_names=None) -> Class2Group:
    """An abelian group viewed as a class-2 group with trivial central layer."""
    c = FinAbGroup(0)
    return Class2Group(a, c, la.zeros(0, a.ngens ** 2),
                       la.zeros(0, a.ngens ** 2), gen_names, check=False)


def _lattice_quotient_group(gen_rows: list[list[int]], ambient: FinAbGroup) -> FinAbGroup:
    """The subgroup (lattice + relations)/relations of an ambient group."""
    lat = la.row_basis(gen_rows + ambient.relations, ambient.ngens)
    k = len(lat)
    bt = la.transpose(lat, ambient.ngens)
    rels = []
    if ambient.relations:
        solver = la.Solver(bt, k)
        for r in ambient.relations:
            coeffs = solver.solve(r)
            assert coeffs is not None
            rels.append(coeffs)
    return FinAbGroup(k, rels)


class Class2Elem:
    """Group element (q, c); equality is componentwise modulo relations."""

    __slots__ = ("group", "qvec", "cvec")

    def __init__(self, group: Class2Group, qvec, cvec):
        self.group = group
        self.qvec = list(qvec)
        self.cvec = list(cvec)
        if len(self.qvec) != group.q.ngens or len(self.cvec) != group.c.ngens:
            raise ValueError("bad element shape")

    def __mul__(self, other: "Class2Elem") -> "Class2Elem":
        g = self.group
        q = la.vec_add(self.qvec, other.qvec)
        c = la.vec_add(la.vec_add(self.cvec, other.cvec),
                       g.beta_eval(self.qvec, other.qvec))
        return Class2Elem(g, q, c)

    def inverse(self) -> "Class2Elem":
        g = self.group
        c = la.vec_add([-x for x in self.cvec], g.beta_eval(self.qvec, self.qvec))
        return Class2Elem(g, [-x for x in self.qvec], c)

    def __pow__(self, a: int) -> "Class2Elem":
        g = self.group
        q = la.vec_scale(a, self.qvec)
        c = la.vec_add(la.vec_scale(a, self.cvec),
                       la.vec_scale(_binom2(a), g.beta_eval(self.qvec, self.qvec)))
        return Class2Elem(g, q, c)

    def commutator(self, other: "Class2Elem") -> "Class2Elem":
        g = self.group
        return g.central(g.lam_eval(self.qvec, other.qvec))

    def conjugate_by(self, other: "Class2Elem") -> "Class2Elem":
        """other^-1 * self * other."""
        return self * self.commutator(other)

    def is_identity(self) -> bool:
        return (self.group.q.contains_in_lattice(self.qvec)
                and self.group.c.contains_in_lattice(self.cvec))

    def is_central(self) -> bool:
        """Whether every commutator lam(q, e_j) with a Q generator lies in
        the C relation lattice.  The columns lam(q, e_j) are built in one
        pass over the nonzeros of lam, and only the nonzero ones are
        tested: a zero column lies in every lattice."""
        g = self.group
        if g.q.contains_in_lattice(self.qvec):
            return True
        cols = {}
        for i, row in g._lam_terms:
            a = self.qvec[i]
            if a:
                for j, r, coeff in row:
                    cols.setdefault(j, [0] * g.c.ngens)[r] += coeff * a
        return all(g.c.contains_in_lattice(col) for col in cols.values())

    def __eq__(self, other):
        if not isinstance(other, Class2Elem):
            return NotImplemented
        g, h = self.group, other.group
        if (g.q.ngens, g.c.ngens) != (h.q.ngens, h.c.ngens):
            return False
        return (g.q.contains_in_lattice(la.vec_sub(self.qvec, other.qvec))
                and g.c.contains_in_lattice(la.vec_sub(self.cvec, other.cvec)))

    def __hash__(self):
        raise TypeError("Class2Elem is unhashable; equality is modulo relations")

    def __repr__(self):
        return "Class2Elem(q=%r, c=%r)" % (self.qvec, self.cvec)


def product_group(g: Class2Group, h: Class2Group):
    """(G x H, pair embed function, projections as q/c index slices)."""
    from .abelian import direct_sum
    q, qig, qih, qpg, qph = direct_sum(g.q, h.q)
    c, cig, cih, cpg, cph = direct_sum(g.c, h.c)
    nq, nc = q.ngens, c.ngens
    lam = la.zeros(nc, nq * nq)
    beta = la.zeros(nc, nq * nq)
    ng, nh = g.q.ngens, h.q.ngens

    def fill(mat, src, block, offset_c):
        n_side = ng if block == 0 else nh
        off = 0 if block == 0 else ng
        for i in range(n_side):
            for j in range(n_side):
                col = i * n_side + j
                for r in range(len(src)):
                    mat[offset_c + r][(off + i) * nq + (off + j)] = src[r][col]

    fill(lam, g.lam, 0, 0)
    fill(beta, g.beta, 0, 0)
    fill(lam, h.lam, 1, g.c.ngens)
    fill(beta, h.beta, 1, g.c.ngens)
    names = [n + "'" for n in g.gen_names] + [n + "''" for n in h.gen_names]
    prod = Class2Group(q, c, lam, beta, names, check=False)

    def embed(eg: Class2Elem, eh: Class2Elem) -> Class2Elem:
        return prod.element(eg.qvec + eh.qvec, eg.cvec + eh.cvec)

    return prod, embed


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Class2Hom:
    """Homomorphism defined on generators plus a central-layer map."""

    def __init__(self, source: Class2Group, target: Class2Group,
                 gen_images, cmap: AbMap, check: bool = True):
        self.source = source
        self.target = target
        self.gen_images = list(gen_images)
        self.cmap = cmap
        self._q_map = None  # built by the first q_map()
        self._kernel = None  # held by the first hom_kernel
        self._cokernel = None  # held by the first hom_cokernel
        if len(self.gen_images) != source.q.ngens:
            raise ValueError("need one image per Q generator")
        if cmap.source is not source.c or cmap.target is not target.c:
            if not (cmap.source.ngens == source.c.ngens
                    and cmap.target.ngens == target.c.ngens):
                raise ValueError("cmap has wrong shape")
        if check:
            self.validate()

    # -- evaluation ------------------------------------------------------------

    def eval(self, elem: Class2Elem) -> Class2Elem:
        out = self.target.power_product(self.gen_images, elem.qvec)
        resid = la.vec_sub(elem.cvec, self.source.collect_central(elem.qvec))
        return Class2Elem(self.target, out.qvec, la.vec_add(
            out.cvec, la.mat_vec(self.cmap.matrix, resid)))

    __call__ = eval

    def values(self) -> list["Class2Elem"]:
        """The values on `source.generators()`, the inverse of
        `hom_from_values`: the Q generators' images, then each C
        generator's column of the central-layer map as a central element.
        `eval` returns these exact vectors on the generators."""
        return list(self.gen_images) + [
            self.target.central([row[j] for row in self.cmap.matrix])
            for j in range(self.source.c.ngens)]

    def q_matrix(self) -> list[list[int]]:
        cols = [img.qvec for img in self.gen_images]
        return la.transpose(cols, self.target.q.ngens)

    def q_map(self) -> AbMap:
        """The map on Q layers, built once so its preimage solver is held."""
        if self._q_map is None:
            self._q_map = AbMap(self.source.q, self.target.q,
                                self.q_matrix())
        return self._q_map

    # -- validation ------------------------------------------------------------

    def validate(self):
        s, t = self.source, self.target
        for rel in s.c.relations:
            if not t.c.contains_in_lattice(la.mat_vec(self.cmap.matrix, rel)):
                raise ValueError("map not well defined: relation %r" % (rel,))
        # eval is multiplicative on x*y by construction unless x = e_i and
        # y = e_j with i > j: there it collects e_j e_i and corrects by
        # cmap(beta_s(e_i, e_j) - beta_s(e_j, e_i)), which must be the
        # commutator of the images, beta_t(q_i, q_j) - beta_t(q_j, q_i).
        nq = s.q.ngens
        qs = [img.qvec for img in self.gen_images]
        for i in range(nq):
            for j in range(i):
                src = [row[i * nq + j] - row[j * nq + i] for row in s.beta]
                obstruction = la.vec_sub(
                    la.vec_sub(t.beta_eval(qs[i], qs[j]),
                               t.beta_eval(qs[j], qs[i])),
                    la.mat_vec(self.cmap.matrix, src))
                if not t.c.contains_in_lattice(obstruction):
                    raise ValueError(
                        "not multiplicative on generators %d,%d" % (i, j))
        # representative independence across the Q relations
        for r in s.q.relations:
            rep = s.ordered_product_element(r)
            alt = s.central(s.collect_central(r))
            if self.eval(rep) != self.eval(alt):
                raise ValueError("hom disagrees on relation representatives")

    # -- algebra -----------------------------------------------------------------

    def compose(self, other):
        """self after other: a Class2Hom, or a `crossed.FreeBaseHom` out of
        a free base, and the composite is then again one."""
        return other.then(self)

    def then(self, outer: "Class2Hom") -> "Class2Hom":
        """outer after self."""
        imgs = [outer.eval(img) for img in self.gen_images]
        cm = outer.cmap.compose(self.cmap)
        return Class2Hom(self.source, outer.target, imgs, cm, check=False)

    def __eq__(self, other):
        if not isinstance(other, Class2Hom):
            return NotImplemented
        # shapes, not group identity: equal homs may land in equal but
        # distinct group objects
        if any((x.q.ngens, x.c.ngens) != (y.q.ngens, y.c.ngens)
               for x, y in ((self.source, other.source),
                            (self.target, other.target))):
            return False
        return (all(a == b for a, b in zip(self.gen_images, other.gen_images))
                and self.cmap == other.cmap)

    def __hash__(self):
        raise TypeError("Class2Hom is unhashable")

    def is_isomorphism(self) -> bool:
        k, _ = hom_kernel(self)
        if not k.is_trivial():
            return False
        c, _ = hom_cokernel(self)
        return c.is_trivial()

    def inverse(self) -> "Class2Hom":
        """Inverse of an isomorphism (raises when not invertible)."""
        s, t = self.source, self.target
        qmap = self.q_map()
        gen_images = []
        for j in range(t.q.ngens):
            ej = [0] * t.q.ngens
            ej[j] = 1
            qpre = qmap.preimage(ej)
            if qpre is None:
                raise ValueError("not surjective on Q layer")
            img = self.eval(s.element(qpre.vec))
            # fix the central discrepancy through cmap
            cfix = self.cmap.preimage([-x for x in img.cvec])
            if cfix is None:
                raise ValueError("central layer not surjective")
            gen_images.append(s.element(qpre.vec, cfix.vec))
        for g in t.generators()[t.q.ngens:]:
            pre = self.cmap.preimage(g.cvec)
            if pre is None:
                raise ValueError("central layer not surjective")
            gen_images.append(s.central(pre.vec))
        inv = hom_from_values(t, s, gen_images)
        assert inv.compose(self) == identity_hom(s), "inverse failed"
        return inv

    def __repr__(self):
        return "Class2Hom(%r -> %r)" % (self.source, self.target)


def hom_from_values(source: Class2Group, target: Class2Group, values,
                    check: bool = True) -> Class2Hom:
    """The hom with these values on `source.generators()`: the Q generators'
    values are its generator images, and each C generator's value, which
    must be central (its Q part in the target's relation lattice), gives
    its column of the central-layer map."""
    nq = source.q.ngens
    cols = []
    for j, v in enumerate(values[nq:]):
        if not target.q.contains_in_lattice(v.qvec):
            raise ValueError("value of central generator %d is not central"
                             % j)
        cols.append(v.cvec)
    cmap = AbMap(source.c, target.c, la.transpose(cols, target.c.ngens),
                 check=False)
    return Class2Hom(source, target, values[:nq], cmap, check=check)


def identity_hom(g: Class2Group) -> Class2Hom:
    return Class2Hom(g, g, [g.generator(i) for i in range(g.q.ngens)],
                     identity_map(g.c), check=False)


def trivial_hom(s: Class2Group, t: Class2Group) -> Class2Hom:
    return Class2Hom(s, t, [t.identity()] * s.q.ngens,
                     zero_map(s.c, t.c), check=False)


# ---------------------------------------------------------------------------
# subgroups, quotients, kernels, cokernels
# ---------------------------------------------------------------------------

class Subgroup:
    """Subgroup (or normal closure) generated by a list of elements."""

    def __init__(self, group: Class2Group, gens, normal: bool = False):
        self.group = group
        self.gens = list(gens)
        self.normal = normal
        g = group
        nq, nc = g.q.ngens, g.c.ngens
        qparts = [e.qvec for e in self.gens]
        self.q_rows = la.row_basis(qparts + g.q.relations, nq)
        central = [e.cvec for e in self.gens if g.q.contains_in_lattice(e.qvec)]
        central += list(g.c.relations)
        if normal:
            for i in range(nq):
                ei = [0] * nq
                ei[i] = 1
                for e in self.gens:
                    central.append(g.lam_eval(ei, e.qvec))
        else:
            for e in self.gens:
                for f in self.gens:
                    central.append(g.lam_eval(e.qvec, f.qvec))
        # kernel combinations: products of generators landing in the
        # relation lattice of Q contribute their central parts
        if self.gens:
            qmat = la.transpose(qparts, nq)  # nq x ngen
            combos = la.preimage_lattice(qmat, len(self.gens), g.q.relations)
            for m in combos:
                central.append(g.power_product(self.gens, m).cvec)
        self.c_rows = la.row_basis(central, nc)

    def contains(self, elem: Class2Elem) -> bool:
        g = self.group
        qparts = [e.qvec for e in self.gens]
        qmat = la.transpose(qparts, g.q.ngens) if self.gens else \
            la.zeros(g.q.ngens, 0)
        m = la.solve_mod(qmat, len(self.gens), elem.qvec, g.q.relations)
        if m is None:
            return False
        prod = g.power_product(self.gens, m)
        resid = la.vec_sub(elem.cvec, prod.cvec)
        return la.in_lattice(self.c_rows, g.c.ngens, resid)

    def quotient(self):
        """(Q group, projection hom); needs the subgroup to be normal."""
        if not self.normal:
            raise ValueError("quotient needs a normal closure")
        g = self.group
        nq, nc = g.q.ngens, g.c.ngens
        qq = FinAbGroup(nq, g.q.relations + self.q_rows)
        cq = FinAbGroup(nc, list(self.c_rows))
        try:
            quot = Class2Group(qq, cq, g.lam, g.beta, g.gen_names)
        except ValueError as exc:
            raise QuotientError("cocycle does not descend: %s" % exc) from exc
        # twist the projection so every subgroup generator maps to 1
        t = _projection_twist([e.qvec for e in self.gens],
                              [e.cvec for e in self.gens], nq, cq)
        if t is None:
            raise QuotientError("projection twist has no solution; "
                                "quotient cocycle fails to descend")
        gen_images = []
        for i in range(nq):
            qv = [0] * nq
            qv[i] = 1
            cv = [t[r][i] for r in range(nc)]
            gen_images.append(quot.element(qv, cv))
        cmap = AbMap(g.c, cq, la.identity(nc), check=False)
        proj = Class2Hom(g, quot, gen_images, cmap)
        for e in self.gens:
            assert proj.eval(e).is_identity(), "projection does not kill subgroup"
        return quot, proj


def _projection_twist(qparts, cparts, nq: int, cq: FinAbGroup):
    """T (cq.ngens x nq) with T q_e == -c_e modulo cq for every pair, or None.

    With G the matrix whose columns are the q_e and C the one of the c_e,
    the system is T G == -C.  For the Smith form U G V = D and S = T U^-1
    it reads S D == -C V, one scalar division d_j s_j == (-C V)_j in cq per
    column j (d_j = 0 past the rank of G), and T = S U.
    """
    nc, ng = cq.ngens, len(qparts)
    u, d, v, _, _ = la.smith_normal_form(la.transpose(qparts, nq), ng,
                                         keep=("u", "v"))
    diag = la.diagonal(d, ng)
    cv = la.mat_mul(la.transpose(cparts, nc), v)
    s = la.zeros(nc, nq)
    for j in range(ng):
        sj = cq.divide(diag[j] if j < len(diag) else 0,
                       [-cv[r][j] for r in range(nc)])
        if sj is None:
            return None
        if j < nq:
            for r in range(nc):
                s[r][j] = sj[r]
    return la.mat_mul(s, u)


def hom_cokernel(f: Class2Hom):
    """(coker group, projection hom): quotient by the image's normal closure,
    built on the first call and held on f."""
    if f._cokernel is None:
        sub = Subgroup(f.target, f.values(), normal=True)
        f._cokernel = sub.quotient()
    return f._cokernel


def hom_kernel(f: Class2Hom):
    """(kernel group, inclusion hom), computed layer by layer on the first
    call and held on f.

    The kernel's cocycle table sends only the nonzero commutators of the
    kernel basis to central coordinates: a zero commutator has the zero
    coordinates the table starts with, as `la.Solver` solves 0 by 0, so the
    preimage solver is not built when every commutator vanishes."""
    if f._kernel is not None:
        return f._kernel
    s, t = f.source, f.target
    nqs, ncs = s.q.ngens, s.c.ngens
    a = f.q_matrix()
    # central layer: kernel of cmap
    ckern, cincl = f.cmap.kernel()
    # Q directions whose central defect is killable through cmap
    s_lat = la.preimage_lattice(a, nqs, t.q.relations)
    zvals = []
    for u in s_lat:
        img = f.eval(s.ordered_product_element(u))
        zvals.append(img.cvec)
    # z is linear modulo (im cmap + target C relations)
    ct_mod = FinAbGroup(t.c.ngens, t.c.relations
                        + la.transpose(f.cmap.matrix, ncs))
    free_s = FinAbGroup(len(s_lat))
    zmap = AbMap(free_s, ct_mod, la.transpose(zvals, t.c.ngens), check=False)
    zker, zincl = zmap.kernel()
    u_vectors = []
    s_mat = la.transpose(s_lat, nqs) if s_lat else la.zeros(nqs, 0)
    for j in range(zker.ngens):
        coeffs = [zincl.matrix[r][j] for r in range(len(s_lat))]
        u_vectors.append(la.mat_vec(s_mat, coeffs))
    # central lifts
    kelems = []
    for u in u_vectors:
        img = f.eval(s.ordered_product_element(u))
        cfix = f.cmap.preimage([-x for x in img.cvec])
        assert cfix is not None, "killable defect has no lift"
        kelems.append(s.element(u, la.vec_add(s.collect_central(u),
                                              cfix.vec)))
    nk = len(kelems)
    # Q-layer relations: source relations expressed in the u basis
    u_mat = la.transpose(u_vectors, nqs) if u_vectors else la.zeros(nqs, 0)
    qk_rels = []
    if s.q.relations:
        solver = la.Solver(u_mat, nk, s.q.relations)
        for rel in s.q.relations:
            coeffs = solver.solve(rel)
            assert coeffs is not None, "source relation escapes kernel lattice"
            qk_rels.append(coeffs)
    qk = FinAbGroup(nk, qk_rels)
    ck = ckern

    def central_coords(cvec) -> list[int]:
        coeffs = cincl.preimage(cvec)
        assert coeffs is not None, "central value outside kernel layer"
        return coeffs.vec

    lamk = la.zeros(ck.ngens, nk * nk)
    betak = la.zeros(ck.ngens, nk * nk)
    for i in range(nk):
        for j in range(nk):
            lv = s.lam_eval(kelems[i].qvec, kelems[j].qvec)
            if not any(lv):
                continue
            lc = central_coords(lv)
            for r in range(ck.ngens):
                lamk[r][i * nk + j] = lc[r]
            if i > j:
                # ordered-product cocycle: only sorting costs survive
                for r in range(ck.ngens):
                    betak[r][i * nk + j] = lc[r]
    kgroup = Class2Group(qk, ck, lamk, betak, check=False)
    incl = Class2Hom(kgroup, s, kelems, AbMap(ck, s.c, cincl.matrix, check=False))
    f._kernel = kgroup, incl
    return f._kernel


# ---------------------------------------------------------------------------
# free objects and word collection
# ---------------------------------------------------------------------------

def free_nil(points: PointedSet) -> Class2Group:
    """Free class-2 group on the non-base points of a pointed set.

    The central layer is the exterior square, with orientation
    e_i ^ e_j = lam(e_i (x) e_j) for i < j; the cocycle is strictly upper
    triangular, which fixes every commutator sign downstream.
    """
    syms = points.nonbase()
    k = len(syms)
    q = FinAbGroup(k)
    nc = k * (k - 1) // 2
    c = FinAbGroup(nc)
    idx = {}
    pos = 0
    for i in range(k):
        for j in range(i + 1, k):
            idx[(i, j)] = pos
            pos += 1
    lam = la.zeros(nc, k * k)
    beta = la.zeros(nc, k * k)
    for (i, j), p in idx.items():
        lam[p][i * k + j] = 1
        lam[p][j * k + i] = -1
        beta[p][i * k + j] = 1
    g = Class2Group(q, c, lam, beta, gen_names=list(syms), check=False)
    g.wedge_index = idx
    g.points = points
    return g


def nilize(word: Word, group: Class2Group) -> Class2Elem:
    """Collect a free word left-to-right into its (q, c) normal form."""
    name_to_idx = {n: i for i, n in enumerate(group.gen_names)}
    return group.power_product(
        [group._gens[name_to_idx[sym]] for sym, _ in word.letters],
        [exp for _, exp in word.letters])


def hom_from_words(source: Class2Group, target: Class2Group,
                   images: dict, cmap: AbMap = None) -> Class2Hom:
    """Homomorphism of free_nil groups from generator words; the central
    layer map is forced by commutators unless given."""
    gen_images = [nilize(images[name], target) for name in source.gen_names]
    if cmap is None:
        return source.free_hom(target, gen_images)
    return Class2Hom(source, target, gen_images, cmap)


# ---------------------------------------------------------------------------
# the exact sequence of quadratic functors over a free_nil group
# ---------------------------------------------------------------------------

def level_tensor_square(n: int, a: FinAbGroup):
    """(group, map from the plain tensor square, ts) for level n >= 2."""
    ts = tensor_square(a)
    if n == 2:
        return ts.group, identity_map(ts.group), ts
    grp, proj, _ = reduced_tensor_square(a)
    return grp, proj, ts


def level_gamma(n: int, a: FinAbGroup):
    """(group, inclusion-candidate into the level tensor square, level ts)."""
    lts, from_plain, ts = level_tensor_square(n, a)
    if n == 2:
        gm = gamma(a)
        inc = gm.into_tensor_square(ts)
        return gm.group, inc, (lts, from_plain, ts)
    g2, proj2 = tensor_z2(a)
    m = la.zeros(lts.ngens, a.ngens)
    for i in range(a.ngens):
        m[ts.index(i, i)][i] = 1
    inc = AbMap(g2, lts, m)
    return g2, inc, (lts, from_plain, ts)


def level_gamma_map(n: int, f: AbMap) -> AbMap:
    """The level quadratic functor on a map f: A -> B, between the groups
    `level_gamma` gives A and B: gamma(f) at level 2, f (x) Z/2 above."""
    if n == 2:
        return gamma_map(f, gamma(f.source), gamma(f.target))
    return AbMap(tensor_z2(f.source)[0], tensor_z2(f.target)[0], f.matrix)


def boundary_map(n: int, free_group: Class2Group):
    """The level-n boundary from the tensor-square group into free_nil.

    Returns (level tensor square group, AbMap into the central layer,
    plain-to-level projection, plain TensorSquare).  On pure tensors the
    composite with the central inclusion sends x (x) y to [x, y].
    """
    a = free_group.q
    lts, from_plain, ts = level_tensor_square(n, a)
    # at n >= 3 lam kills 1 + swap, so the same matrix drives the reduced square
    bmap = AbMap(lts, free_group.c, [row[:] for row in free_group.lam])
    return lts, bmap, from_plain, ts


def exact_sequence_report(n: int, points: PointedSet) -> dict:
    """Exactness of gamma_n -> tensor_n -> free_nil -> Z[A] over a pointed set.

    Returns a dict of booleans: injective head, exactness in the middle,
    image of the boundary equals the commutator layer.  The tail is the
    identity on the Q layer, so it is surjective by construction.
    """
    g = free_nil(points)
    a = g.q
    gam, inc, (lts_g, from_plain, ts) = level_gamma(n, a)
    lts, bnd, _, _ = boundary_map(n, g)
    report = {}
    kin, _ = inc.kernel()
    report["head_injective"] = kin.is_trivial()
    comp = bnd.compose(inc)
    report["composite_zero"] = comp.is_zero()
    kb, kb_incl = bnd.kernel()
    # middle exactness: the induced map gamma -> ker(boundary) is onto
    lift_cols = []
    solver = la.Solver(kb_incl.matrix, kb.ngens, lts.relations)
    for j in range(gam.ngens):
        col = [inc.matrix[r][j] for r in range(lts.ngens)]
        coeffs = solver.solve(col)
        if coeffs is None:
            report["middle_exact"] = False
            break
        lift_cols.append(coeffs)
    else:
        lifted = AbMap(gam, kb, la.transpose(lift_cols, kb.ngens), check=False)
        cok, _ = lifted.cokernel()
        report["middle_exact"] = cok.is_trivial()
    cok_b, _ = bnd.cokernel()
    report["boundary_hits_commutators"] = cok_b.is_trivial()
    report["exact"] = all(report[k] for k in
                          ("head_injective", "composite_zero", "middle_exact",
                           "boundary_hits_commutators"))
    return report
