"""Nilpotency class two groups as central extensions with bilinear cocycles.

A `Class2Group` is a central extension of an abelian quotient layer Q by a
central layer C.  The data is one bilinear cocycle `beta` from the tensor
square of Q into C; the commutator pairing lam = beta - beta o swap is
derived from it, and the one check (`_validate`) is that beta descends
through the Q relations.  Elements are pairs (q, c) multiplied by

    (q, c) * (q', c') = (q + q', c + c' + beta(q (x) q'))

so all word problems reduce to exact integer linear algebra.  Commutators
are written additively in the group-theory convention [x, y] = -x-y+x+y.

Every ordered product of powers of x_k = (q_k, c_k) is collected by one
closed form, `Class2Group.power_product`, with p_k = sum_{j<k} a_j q_j:

    prod_k x_k^a_k = (sum a_k q_k, sum [a_k c_k + binom(a_k, 2)
                      beta(q_k (x) q_k) + beta(p_k (x) a_k q_k)]).

Its generator case, the ordered product e_1^q_1 ... e_n^q_n of a normal
form, is `collect_central`: one pass over the nonzeros of beta,

    sum_i binom(q_i, 2) beta(e_i (x) e_i)
        + sum_{i<j} q_i q_j beta(e_i (x) e_j).

Its one-element case is a power or the inverse of an element.  It sums
over the factors with a nonzero exponent only (most exponents the library
passes are 0: a sparse coordinate vector, a hom evaluated on a normal
form), starts the prefix term at the second of them, and sums no pairing
at all when beta has no nonzero terms.

No group or element refers back to itself: a group holds no table of its
own generators (`nilize` builds the ones a word reads), so groups,
elements and the lattices and kernels they hold are freed by
reference counting when their last user drops them, never left for the
cyclic garbage collector (`tests/test_reference_cycles.py`).

`beta` and the derived `lam` are stored dense, one row per central
generator and one column per pair (i, j) of Q generators, and that is the
form every reader of the matrices sees.  They are evaluated through their
nonzeros only, indexed once per group by first index: a free class-2
group has one nonzero of beta per central generator, an abelian group
viewed as class two has none.

Homomorphisms are stored as generator images plus a map on the central
layer; construction checks that map on the C relations, commutator
compatibility on generator pairs i > j and representative independence on
the Q relations, which suffices in class two because every obstruction term
is bilinear.  Those pair checks, a cocycle's descent through the Q
relations and the kernel's cocycle table visit only the pairs where a
nonzero term meets both sides (`pair_support`): elsewhere the obstruction
is 0, in every lattice.  A hom given by its values on `generators()` is
built by `hom_from_values` and nothing else: a C generator's value must be
central (its Q part in the target's relation lattice), and its central
part is that generator's column of the central-layer map.  The way back,
an element a hom sends to y, is `Class2Hom.preimage` and nothing else;
`inverse` takes the preimages of the target's generators as its values.

Input is checked where it enters (documents, the command line, public
constructors), and an object the library derives from valid ones is built
unchecked: `Subgroup.quotient`'s group and projection, `hom_kernel`'s
inclusion and `Class2Hom.q_map`.  A quotient tests only what can fail
there: descent through the new Q rows, and the projection's central twist
on the ambient group's own Q relations (the twist is solved on the
subgroup's generators alone).  Descent through the old relations holds
because the ambient group is valid and both lattices only grow.
`hom_from_values` tests its central values whatever `check` says.
`tests/test_nil2.py` holds the derived objects to their checks
(`test_kernel_inclusions_pass_their_check`,
`test_quotient_refuses_where_the_full_check_refused`), and
`tests/test_check_sites.py` fails if a check runs again on the h0/h1,
fiber and six-term paths.  `tracks.py` builds the 2-morphisms it derives
unchecked from level two up; at level one it still checks them, until the
benchmark stops reading a faster track-laws as a memory regression
(ROADMAP items 1 and 4).

The free objects here are `free_nil` (free class-2 group on a pointed set,
with the strictly upper triangular cocycle convention fixing the orientation
a ^ b = lam(a (x) b) for generator indices i < j) and `nilize`, which
collects an arbitrary free word into its normal form.  The way back, an
element spelled as letters, is `Class2Group.letters` and nothing else: it
solves the central residue against `lam` through a `Lattice` the group
builds once.

Subgroups, normal closures, quotients, and kernels/cokernels of
homomorphisms are computed lattice-by-lattice; a quotient whose cocycle
fails to descend raises `QuotientError` instead of silently answering.
`hom_kernel` and `hom_cokernel` build their pair on the first call for a
hom and hold it there, so every later call for the same hom returns it.
The kernel is built in two stages: `_kernel_lifts` (the central lifts of
the Q directions, held on the hom too), then the assembly of the kernel
group, the only place the C-layer kernel group is built.
`kernel_generators` reads the first stage and the central-layer map's
held `kernel_basis` alone, and gives the kernel as a generating set of
the source, which is all that exactness and `Class2Hom.is_isomorphism`
need.
The kernel's Q relations are the source's relations written exactly in
the kernel basis (`intlinalg.sub_basis_coordinates`).  Its lattice steps
are preimages read off certificates already held, so the basis they give
is whatever the certificate gives; the lifts of that basis are twisted by
central elements until they multiply out to 1 over each of those
relations, and a kernel whose lifts admit no such twist (it would need a
cocycle term the ordered-product cocycle drops) is refused with
`QuotientError`.  `underlying_ab` of a group with no central layer is its
Q layer itself.

`level_gamma` gives the level quadratic functor of a group with its
inclusion into the level tensor square, and `exact_sequence_report`
certifies the four-term sequence by the abelian rules alone: injective,
zero composite, `abelian.exact`, surjective.
"""

from __future__ import annotations

from itertools import combinations, compress

from . import intlinalg as la
from .abelian import (AbMap, FinAbGroup, exact, gamma,
                      gamma_into_tensor_square, gamma_map, identity_map,
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
    # set by letters on first use: the held lattice of lam modulo C
    _lam_lattice = None
    # set by underlying_ab on first use
    _underlying_ab = None

    def __init__(self, q: FinAbGroup, c: FinAbGroup, beta_matrix, *,
                 gen_names=None, check: bool = True):
        self.q = q
        self.c = c
        nq, nc = q.ngens, c.ngens
        self.beta = [list(r) for r in beta_matrix]
        if len(self.beta) != nc or any(len(r) != nq * nq for r in self.beta):
            raise ValueError("beta must be c.ngens x q.ngens^2")
        self.gen_names = (["x%d" % i for i in range(nq)] if gen_names is None
                          else list(gen_names))
        if len(self.gen_names) != nq:
            raise ValueError("%d generator names for %d Q generators"
                             % (len(self.gen_names), nq))
        if len(set(self.gen_names)) != nq:
            raise ValueError("repeated generator name %r" % next(
                n for i, n in enumerate(self.gen_names)
                if n in self.gen_names[:i]))
        self._beta_terms = _nonzero_terms(self.beta, nq)
        # lam = beta - beta o swap, from the nonzeros of beta
        self.lam = la.zeros(nc, nq * nq)
        for i, row in self._beta_terms:
            for j, r, coeff in row:
                self.lam[r][i * nq + j] += coeff
                self.lam[r][j * nq + i] -= coeff
        self._lam_terms = _nonzero_terms(self.lam, nq)
        if check:
            self._validate()

    def _validate(self):
        """Descent, the one condition on beta (lam is derived from it)."""
        self._check_descent(self.q.relations)

    def _check_descent(self, rels):
        """Descent through the Q rows rels: beta(rel, e_j) = beta(e_j, rel)
        = 0 in C for every row and every Q generator, tested only on the
        pairs `pair_support` gives; raises ValueError where it fails."""
        if not rels:
            return
        units = la.identity(self.q.ngens)
        for us, vs in ((rels, units), (units, rels)):
            for i, j in pair_support(self._beta_terms, us, vs):
                if not self.c.contains_in_lattice(
                        self.beta_eval(us[i], vs[j])):
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
        the closed form of the module docstring with one running prefix.

        Only the factors with a nonzero exponent are visited; the prefix
        term starts at the second of them, and no pairing is summed when
        beta has no nonzero terms.  elems and exps must have one length,
        else ValueError."""
        if len(elems) != len(exps):
            raise ValueError("power_product needs one exponent per element: "
                             "%d elements, %d exponents"
                             % (len(elems), len(exps)))
        beta = self._beta_terms
        prefix = None
        out = [0] * self.c.ngens
        for x, a in zip(compress(elems, exps), compress(exps, exps)):
            qv = x.qvec
            aq = [a * v for v in qv]
            for r, v in enumerate(x.cvec):
                out[r] += a * v
            if beta:
                _pairing(beta, out, qv, qv, _binom2(a))
                if prefix is not None:
                    _pairing(beta, out, prefix, aq)
            prefix = aq if prefix is None else la.vec_add(prefix, aq)
        if prefix is None:
            prefix = [0] * self.q.ngens
        return Class2Elem(self, prefix, out)

    def collect_central(self, qvec) -> list[int]:
        """Central part of the ordered product of generator powers for qvec:
        sum_i binom(q_i, 2) beta(e_i, e_i) + sum_{i<j} q_i q_j beta(e_i, e_j),
        the generator case of `power_product`, in one pass over the
        nonzeros of beta."""
        out = [0] * self.c.ngens
        for i, row in self._beta_terms:
            a = qvec[i]
            if a:
                for j, r, coeff in row:
                    if j > i:
                        out[r] += coeff * a * qvec[j]
                    elif j == i:
                        out[r] += coeff * _binom2(a)
        return out

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
        """The underlying abelian group (only when the group is abelian) on
        the Q generators followed by the C generators (`_ab_group`), built
        on the first call and held on the group."""
        if self._underlying_ab is None:
            if not self.is_abelian():
                raise ValueError("underlying_ab needs an abelian group")
            self._underlying_ab = self._ab_group(self.c.relations)
        return self._underlying_ab

    def abelianization(self):
        """G_ab as a FinAbGroup on the Q generators then the C generators:
        `underlying_ab`'s rows with the columns of lam among the C
        relations, the quotient by the commutator subgroup."""
        return self._ab_group(self.c.relations
                              + la.transpose(self.lam, self.q.ngens ** 2))

    def _ab_group(self, c_rows) -> FinAbGroup:
        """Z^(nq + nc) modulo c_rows on the C generators, then each Q
        relation r with the central defect of its ordered product; a group
        with no central layer gives its Q layer itself."""
        if not self.c.ngens:
            return self.q
        nq = self.q.ngens
        rels = [[0] * nq + r for r in c_rows]
        for r in self.q.relations:
            rels.append(list(r) + [-x for x in self.collect_central(r)])
        return FinAbGroup(nq + self.c.ngens, rels)

    # -- as a base group ------------------------------------------------------

    def letters(self, elem) -> list[tuple[int, int]]:
        """The (generator index, exponent) letters of a word for elem: its
        Q part, then the commutators that make up its central residue,
        solved against `lam` through one `Lattice` held on the group."""
        out = [(i, a) for i, a in enumerate(elem.qvec) if a]
        resid = la.vec_sub(elem.cvec, self.collect_central(elem.qvec))
        if not any(resid):
            return out
        nq = self.q.ngens
        if self._lam_lattice is None:
            self._lam_lattice = la.Lattice(self.lam, nq ** 2,
                                           self.c.relations)
        sol = self._lam_lattice.solve(resid)
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
        # compare central layers modulo commutators and commutator
        # subgroups, the image of lam in C
        def central_layers(g):
            lam_cols = la.transpose(g.lam, g.q.ngens ** 2)
            return (FinAbGroup(g.c.ngens, g.c.relations + lam_cols),
                    _lattice_quotient_group(lam_cols, g.c))

        return all(a.is_isomorphic_to(b) for a, b in
                   zip(central_layers(self), central_layers(other)))

    def __repr__(self):
        return "Class2Group(Q=%r, C=%r)" % (self.q, self.c)


def _nonzero_terms(mat, nq: int):
    """The nonzeros of an nc x nq^2 pairing matrix, grouped by first index:
    [(i, [(j, r, coeff), ...]), ...] over the i that have any."""
    by_i = {}
    for r, row in enumerate(mat):
        for p in compress(range(len(row)), row):
            i, j = divmod(p, nq)
            by_i.setdefault(i, []).append((j, r, row[p]))
    return sorted(by_i.items())


def _support(terms) -> set[tuple[int, int]]:
    """The pairs (i, j) whose column of the pairing matrix is nonzero."""
    return {(i, j) for i, row in terms for j, _, _ in row}


def pair_support(terms, us, vs) -> set[tuple[int, int]]:
    """The index pairs (i, j) where some nonzero term (a, b) of a pairing
    has us[i][a] and vs[j][b] nonzero; at any other pair the pairing of
    us[i] with vs[j] is the zero vector, which lies in every lattice."""
    out = set()
    hits = {}  # b -> the j with vs[j][b] nonzero
    for a, row in terms:
        ia = [i for i, u in enumerate(us) if u[a]]
        if ia:
            for b, _, _ in row:
                if b not in hits:
                    hits[b] = [j for j, v in enumerate(vs) if v[b]]
                for i in ia:
                    for j in hits[b]:
                        out.add((i, j))
    return out


def below_diagonal(*pair_sets) -> list[tuple[int, int]]:
    """The pairs (i, j) with i > j whose pair or mirror is in one of the
    sets, in the order of the loop over i, then j < i."""
    return sorted({(i, j) if i > j else (j, i)
                   for pairs in pair_sets for i, j in pairs if i != j})


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
    return Class2Group(a, FinAbGroup(0), [], gen_names=gen_names,
                       check=False)


def _lattice_quotient_group(gen_rows: list[list[int]], ambient: FinAbGroup) -> FinAbGroup:
    """The subgroup (lattice + relations)/relations of an ambient group."""
    lat = la.row_basis(gen_rows + ambient.relations, ambient.ngens)
    k = len(lat)
    return FinAbGroup(k, la.sub_basis_coordinates(
        la.transpose(lat, ambient.ngens), k, ambient.relations))


class Class2Elem:
    """Group element (q, c); equality is componentwise modulo relations.
    Elements of groups whose Q and C differ (`same_presentation`) are
    never equal, and multiplying them or taking their commutator raises
    `ValueError`."""

    __slots__ = ("group", "qvec", "cvec")

    def __init__(self, group: Class2Group, qvec, cvec):
        self.group = group
        self.qvec = list(qvec)
        self.cvec = list(cvec)
        if len(self.qvec) != group.q.ngens or len(self.cvec) != group.c.ngens:
            raise ValueError("bad element shape")

    def _check_same_group(self, other: "Class2Elem"):
        g, h = self.group, other.group
        if not (g.q.same_presentation(h.q) and g.c.same_presentation(h.c)):
            raise ValueError("elements of different groups: %r and %r"
                             % (g, h))

    def __mul__(self, other: "Class2Elem") -> "Class2Elem":
        g = self.group
        if other.group is not g:
            self._check_same_group(other)
        q = la.vec_add(self.qvec, other.qvec)
        c = la.vec_add(la.vec_add(self.cvec, other.cvec),
                       g.beta_eval(self.qvec, other.qvec))
        return Class2Elem(g, q, c)

    def inverse(self) -> "Class2Elem":
        return self.group.power_product([self], [-1])

    def __pow__(self, a: int) -> "Class2Elem":
        return self.group.power_product([self], [a])

    def commutator(self, other: "Class2Elem") -> "Class2Elem":
        g = self.group
        if other.group is not g:
            self._check_same_group(other)
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
        if g is not h and not (g.q.same_presentation(h.q)
                               and g.c.same_presentation(h.c)):
            return False
        return (g.q.contains_in_lattice(la.vec_sub(self.qvec, other.qvec))
                and g.c.contains_in_lattice(la.vec_sub(self.cvec, other.cvec)))

    def __hash__(self):
        raise TypeError("Class2Elem is unhashable; equality is modulo relations")

    def __repr__(self):
        return "Class2Elem(q=%r, c=%r)" % (self.qvec, self.cvec)


def product_group(g: Class2Group, h: Class2Group):
    """(G x H, pair embed function)."""
    from .abelian import direct_sum
    q, c = direct_sum(g.q, h.q)[0], direct_sum(g.c, h.c)[0]
    nq, nc = q.ngens, c.ngens
    beta = la.zeros(nc, nq * nq)
    # each factor's nonzeros in its diagonal block
    for x, off, off_c in ((g, 0, 0), (h, g.q.ngens, g.c.ngens)):
        for i, row in x._beta_terms:
            for j, r, coeff in row:
                beta[off_c + r][(off + i) * nq + off + j] = coeff
    names = [n + "'" for n in g.gen_names] + [n + "''" for n in h.gen_names]
    prod = Class2Group(q, c, beta, gen_names=names, check=False)

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
        self._lifts = None  # held by the first _kernel_lifts
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
                                self.q_matrix(), check=False)
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
        # Both vanish unless beta_s is nonzero at (i, j) or (j, i), or beta_t
        # pairs q_i with q_j; the latter matter if the former miss a pair.
        nq = s.q.ngens
        qs = [img.qvec for img in self.gen_images]
        beta = t._beta_terms
        pairs = below_diagonal(_support(s._beta_terms))
        if len(pairs) < nq * (nq - 1) // 2:
            pairs = below_diagonal(pairs, pair_support(beta, qs, qs))
        for i, j in pairs:
            src = [row[i * nq + j] - row[j * nq + i] for row in s.beta]
            obstruction = la.vec_sub(
                _pairing(beta, t.beta_eval(qs[i], qs[j]), qs[j], qs[i], -1),
                la.mat_vec(self.cmap.matrix, src))
            if not t.c.contains_in_lattice(obstruction):
                raise ValueError(
                    "not multiplicative on generators %d,%d" % (i, j))
        # representative independence across the Q relations: the ordered
        # product for r and the central element of its collected defect
        # have one image, i.e. out = prod of the images^r is central with
        # central part cmap(collect_s(r)) modulo the target relations
        for r in s.q.relations:
            out = t.power_product(self.gen_images, r)
            if not (t.q.contains_in_lattice(out.qvec)
                    and t.c.contains_in_lattice(la.vec_sub(
                        out.cvec, la.mat_vec(self.cmap.matrix,
                                             s.collect_central(r))))):
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
        # presentations, not group identity: equal homs may land in equal
        # but distinct group objects
        if not all(x.q.same_presentation(y.q) and x.c.same_presentation(y.c)
                   for x, y in ((self.source, other.source),
                                (self.target, other.target))):
            return False
        return (all(a == b for a, b in zip(self.gen_images, other.gen_images))
                and self.cmap == other.cmap)

    def __hash__(self):
        raise TypeError("Class2Hom is unhashable")

    def is_isomorphism(self) -> bool:
        """Injective (every kernel generator is 1) and onto (a trivial
        cokernel); no kernel group is built."""
        if not all(x.is_identity() for x in kernel_generators(self)):
            return False
        c, _ = hom_cokernel(self)
        return c.is_trivial()

    def preimage(self, y: Class2Elem):
        """One x with f(x) == y, or None, the twin of `AbMap.preimage`:
        its Q part from the held solver of `q_map()`, then the central
        part that cancels the rest of y from the held solver of `cmap`.
        It reads one Q solution, so None also where y is reached only by
        another: never on a kernel inclusion or where `cmap` is onto."""
        q = self.q_map().preimage(y.qvec)
        if q is None:
            return None
        img = self.eval(self.source.element(q.vec))
        c = self.cmap.preimage(la.vec_sub(y.cvec, img.cvec))
        if c is None:
            return None
        return self.source.element(q.vec, c.vec)

    def inverse(self) -> "Class2Hom":
        """Inverse of an isomorphism: the hom with the preimages of the
        target's generators as values (raises when not invertible)."""
        s, t = self.source, self.target
        values = [self.preimage(g) for g in t.generators()]
        for j, v in enumerate(values):
            if v is None:
                raise ValueError("not invertible: target generator %d has "
                                 "no preimage" % j)
        inv = hom_from_values(t, s, values)
        assert inv.compose(self) == identity_hom(s), "inverse failed"
        return inv

    def __repr__(self):
        return "Class2Hom(%r -> %r)" % (self.source, self.target)


def hom_from_values(source: Class2Group, target: Class2Group, values,
                    check: bool = True) -> Class2Hom:
    """The hom with these values on `source.generators()`: the Q generators'
    values are its generator images, and each C generator's value, which
    must be central (its Q part in the target's relation lattice), gives
    its column of the central-layer map.  One value per generator, else
    ValueError."""
    nq = source.q.ngens
    if len(values) != nq + source.c.ngens:
        raise ValueError("hom_from_values needs one value per generator: "
                         "%d generators, %d values"
                         % (nq + source.c.ngens, len(values)))
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
        self._q_rows = None  # built by the first read of q_rows
        g = group
        nq, nc = g.q.ngens, g.c.ngens
        qparts = [e.qvec for e in self.gens]
        central = [e.cvec for e in self.gens if g.q.contains_in_lattice(e.qvec)]
        central += list(g.c.relations)
        # every row, zero ones included: a row's position steers the
        # pivot order of the row basis below
        lefts = la.identity(nq) if normal else [e.qvec for e in self.gens]
        central += [g.lam_eval(u, e.qvec) for u in lefts for e in self.gens]
        # kernel combinations: products of generators landing in the
        # relation lattice of Q contribute their central parts
        if self.gens:
            qmat = la.transpose(qparts, nq)  # nq x ngen
            combos = g.q.lattice.preimage(qmat, len(self.gens))
            for m in combos:
                central.append(g.power_product(self.gens, m).cvec)
        self.c_rows = la.row_basis(central, nc)

    @property
    def q_rows(self) -> list[list[int]]:
        """A row basis of the Q parts of the generators plus the Q
        relations, built on the first read and held: only `quotient`
        reads it."""
        if self._q_rows is None:
            g = self.group
            self._q_rows = la.row_basis(
                [e.qvec for e in self.gens] + g.q.relations, g.q.ngens)
        return self._q_rows

    def contains(self, elem: Class2Elem) -> bool:
        g = self.group
        qparts = [e.qvec for e in self.gens]
        m = la.solve_mod(la.transpose(qparts, g.q.ngens), len(self.gens),
                         elem.qvec, g.q.relations)
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
        # g is valid and both lattices only grow, so beta still descends
        # through g's own Q relations: only the new rows can fail
        quot = Class2Group(qq, cq, g.beta, gen_names=g.gen_names,
                           check=False)
        try:
            quot._check_descent(self.q_rows)
        except ValueError as exc:
            raise QuotientError("cocycle does not descend: %s" % exc) from exc
        # twist the projection so every subgroup generator maps to 1
        t = _projection_twist([e.qvec for e in self.gens],
                              [e.cvec for e in self.gens], nq, cq)
        if t is None:
            raise QuotientError("projection twist has no solution; "
                                "quotient cocycle fails to descend")
        # the projection is then a hom except on g's own Q relations: the
        # twist is solved on the subgroup's generators alone, and a
        # relation r maps to the central element T r
        for r in g.q.relations:
            if not cq.contains_in_lattice(la.mat_vec(t, r)):
                raise QuotientError("projection twist breaks the relation "
                                    "%r of the group" % (r,))
        gen_images = []
        for i in range(nq):
            qv = [0] * nq
            qv[i] = 1
            cv = [t[r][i] for r in range(nc)]
            gen_images.append(quot.element(qv, cv))
        cmap = AbMap(g.c, cq, la.identity(nc), check=False)
        proj = Class2Hom(g, quot, gen_images, cmap, check=False)
        return quot, proj


def _projection_twist(qparts, cparts, nq: int, cq: FinAbGroup):
    """T (cq.ngens x nq) with T q_e == -c_e modulo cq for every pair, or None.

    With G the matrix whose columns are the q_e and C the one of the c_e,
    the system is T G == -C.  For the Smith form U G V = D and S = T U^-1
    it reads S D == -C V, one scalar division d_j s_j == (-C V)_j in cq per
    column j (d_j = 0 past the rank of G), and T = S U.  Column j of C V
    sums the c_e over the nonzeros of V's column j, and S U adds s_j times
    the nonzeros of U's row j, so neither product walks a zero entry.
    """
    nc, ng = cq.ngens, len(qparts)
    diag, u, v, _ = la.smith_normal_form(la.transpose(qparts, nq), ng,
                                         keep=("u", "v"))
    t = la.zeros(nc, nq)
    for j in range(ng):
        neg_cv = [0] * nc
        for i, x in v[j].items():
            for r, y in enumerate(cparts[i]):
                neg_cv[r] -= x * y
        sj = cq.lattice.divide(diag[j] if j < len(diag) else 0, neg_cv)
        if sj is None:
            return None
        if j < nq:
            for c, x in u[j].items():
                for r in range(nc):
                    t[r][c] += sj[r] * x
    return t


def hom_cokernel(f: Class2Hom):
    """(coker group, projection hom): quotient by the image's normal closure,
    built on the first call and held on f."""
    if f._cokernel is None:
        sub = Subgroup(f.target, f.values(), normal=True)
        f._cokernel = sub.quotient()
    return f._cokernel


def hom_kernel(f: Class2Hom):
    """(kernel group, inclusion hom), assembled on the first call from the
    lifts `_kernel_lifts` holds and held on f.

    The kernel's cocycle at i > j is the commutator of lifts i and j in
    central coordinates, solved only where it is nonzero (over
    `pair_support`): a zero one has the zero coordinates the table starts
    with, as `la.Lattice` solves 0 by 0, so no preimage solver is built
    when every commutator vanishes.

    The lifts of a basis need not multiply out to 1 over a source relation
    r written in that basis: the product of the lifts to the powers r is a
    central element w_r of the kernel's C layer.  The lifts are twisted by
    central elements T e_i with T r == -w_r for every r
    (`_projection_twist`); where no T exists the kernel needs a cocycle
    term that the ordered-product cocycle does not have, and the kernel is
    refused with `QuotientError`."""
    if f._kernel is not None:
        return f._kernel
    s = f.source
    nqs = s.q.ngens
    # central layer: the kernel group of cmap, from its held basis
    ck, cincl = f.cmap.kernel()
    u_vectors, kelems = _kernel_lifts(f)
    nk = len(kelems)
    # Q-layer relations: source relations expressed exactly in the u basis
    qk = FinAbGroup(nk, la.sub_basis_coordinates(
        la.transpose(u_vectors, nqs), nk, s.q.relations))
    # ordered-product cocycle: only sorting costs survive
    betak = la.zeros(ck.ngens, nk * nk)
    kq = [x.qvec for x in kelems]
    for i, j in below_diagonal(pair_support(s._lam_terms, kq, kq)):
        lv = s.lam_eval(kq[i], kq[j])
        if not any(lv):
            continue
        lc = cincl.preimage(lv)
        assert lc is not None, "central value outside kernel layer"
        for r in range(ck.ngens):
            betak[r][i * nk + j] = lc.vec[r]
    kgroup = Class2Group(qk, ck, betak, check=False)
    kelems = _twist_lifts(kgroup, s, kelems, cincl)
    incl = Class2Hom(kgroup, s, kelems,
                     AbMap(ck, s.c, cincl.matrix, check=False), check=False)
    f._kernel = kgroup, incl
    return f._kernel


def _kernel_lifts(f: Class2Hom):
    """(Q directions u, central lifts), the first stage of `hom_kernel`,
    built on the first call and held on f.

    Both lattice steps are `Lattice.preimage`s of lattices already held:
    the target's Q relations, and the central-layer map's `solver()`, its
    image plus the target's C relations.  The lift of u is the ordered product
    for u times the central element that cancels its image's central
    part, so f sends it to 1."""
    if f._lifts is not None:
        return f._lifts
    s, t = f.source, f.target
    nqs = s.q.ngens
    # Q directions whose central defect is killable through cmap: z is
    # linear modulo (im cmap + target C relations)
    s_lat = t.q.lattice.preimage(f.q_matrix(), nqs)
    zvals = [t.power_product(f.gen_images, u).cvec for u in s_lat]
    zker = f.cmap.solver().preimage(
        la.transpose(zvals, t.c.ngens), len(s_lat)) if s_lat else []
    s_mat = la.transpose(s_lat, nqs)
    u_vectors = [la.mat_vec(s_mat, z) for z in zker]
    kelems = []
    for u in u_vectors:
        img = t.power_product(f.gen_images, u)
        cfix = f.cmap.preimage([-x for x in img.cvec])
        assert cfix is not None, "killable defect has no lift"
        kelems.append(s.element(u, la.vec_add(s.collect_central(u),
                                              cfix.vec)))
    f._lifts = u_vectors, kelems
    return f._lifts


def kernel_generators(f: Class2Hom) -> list[Class2Elem]:
    """Generators of the kernel of f as a subgroup of its source: the
    lifts of `_kernel_lifts`, then the vectors of the central-layer map's
    `kernel_basis` (the columns of its kernel's inclusion) as central
    elements.  A twisted lift of `hom_kernel` differs from its lift by a
    central kernel element, so these generate the subgroup its inclusion
    hits, and no kernel group is built."""
    _, kelems = _kernel_lifts(f)
    s = f.source
    return kelems + [s.central(x) for x in f.cmap.kernel_basis()]


def _twist_lifts(kgroup: Class2Group, s: Class2Group, kelems, cincl: AbMap):
    """The lifts times central elements cincl(T e_i), with T r == -w_r for
    each Q relation r of the kernel, where cincl(w_r) is the central defect
    of the lifts over r: the central part of their product to the powers
    r.  (The kernel's cocycle is zero on and above the diagonal, so the
    ordered product for r collects no central part in the kernel.)  A
    defect in the source's C relations has w_r = 0, and the lifts are
    returned as they are when every w_r is."""
    ws = []
    for r in kgroup.q.relations:
        defect = s.power_product(kelems, r).cvec
        if s.c.contains_in_lattice(defect):
            ws.append([0] * kgroup.c.ngens)
            continue
        w = cincl.preimage(defect)
        if w is None:
            raise QuotientError("relation defect of the kernel lifts lies "
                                "outside the kernel's central layer")
        ws.append(w.vec)
    if not any(map(any, ws)):
        return kelems
    tw = _projection_twist(kgroup.q.relations, ws, kgroup.q.ngens, kgroup.c)
    if tw is None:
        raise QuotientError("kernel lifts admit no central twist; the kernel "
                            "needs a cocycle term the ordered-product "
                            "cocycle drops")
    return [s.element(x.qvec, la.vec_add(x.cvec, la.mat_vec(
        cincl.matrix, [row[i] for row in tw]))) for i, x in enumerate(kelems)]


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
    idx = {pair: p for p, pair in enumerate(combinations(range(k), 2))}
    beta = la.zeros(nc, k * k)
    for (i, j), p in idx.items():
        beta[p][i * k + j] = 1
    g = Class2Group(q, c, beta, gen_names=syms, check=False)
    g.wedge_index = idx
    g.points = points
    return g


def nilize(word: Word, group: Class2Group) -> Class2Elem:
    """Collect a free word left-to-right into its (q, c) normal form."""
    name_to_idx = {n: i for i, n in enumerate(group.gen_names)}
    return group.power_product(
        [group.generator(name_to_idx[sym]) for sym, _ in word.letters],
        [exp for _, exp in word.letters])


def hom_from_words(source: Class2Group, target: Class2Group,
                   images: dict) -> Class2Hom:
    """Homomorphism of free_nil groups from generator words; the central
    layer map is forced by commutators."""
    return source.free_hom(target, [nilize(images[name], target)
                                    for name in source.gen_names])


# ---------------------------------------------------------------------------
# the exact sequence of quadratic functors over a free_nil group
# ---------------------------------------------------------------------------

def level_tensor_square(n: int, a: FinAbGroup):
    """(group, from_plain) for level n >= 2: the tensor square at level 2,
    the reduced tensor square above, and the map from the plain tensor
    square, which is `from_plain.source`.  Both keep the plain basis, e_i
    (x) e_j at index i*n + j, so from_plain is the identity matrix."""
    if n == 2:
        sq = tensor_square(a)
        return sq, identity_map(sq)
    return reduced_tensor_square(a)


def level_gamma(n: int, a: FinAbGroup):
    """(group, inclusion-candidate into the level tensor square): gamma(a)
    at level 2, a (x) Z/2 above, sent to the diagonal x (x) x."""
    lts, _ = level_tensor_square(n, a)
    m = gamma_into_tensor_square(a.ngens)
    if n == 2:
        g = gamma(a)
        return g, AbMap(g, lts, m)
    # e_i (x) 1 goes where gamma(e_i) goes: the first ngens columns
    g2 = tensor_z2(a)
    return g2, AbMap(g2, lts, [row[:a.ngens] for row in m])


def level_gamma_map(n: int, f: AbMap, source: FinAbGroup) -> AbMap:
    """The level quadratic functor on a map f: A -> B, out of `source`, the
    group `level_gamma` gave for A, which the caller holds, into the one
    it gives for B: gamma(f) at level 2, f (x) Z/2 above."""
    if n == 2:
        return gamma_map(f, source, gamma(f.target))
    return AbMap(source, tensor_z2(f.target), f.matrix)


def boundary_map(n: int, free_group: Class2Group):
    """The level-n boundary from the tensor-square group into free_nil.

    Returns (level tensor square group, AbMap into the central layer,
    plain-to-level projection, plain tensor square group).  The fourth slot
    is `from_plain.source`, kept so that callers unpacking four values keep
    working.  On pure tensors the composite with the central inclusion
    sends x (x) y to [x, y].
    """
    lts, from_plain = level_tensor_square(n, free_group.q)
    # at n >= 3 lam kills 1 + swap, so the same matrix drives the reduced square
    bmap = AbMap(lts, free_group.c, [row[:] for row in free_group.lam])
    return lts, bmap, from_plain, from_plain.source


def exact_sequence_report(n: int, points: PointedSet) -> dict:
    """Exactness of gamma_n -> tensor_n -> free_nil -> Z[A] over a pointed set.

    Returns a dict of booleans: injective head, zero composite, exactness
    in the middle, image of the boundary equals the commutator layer.  The
    tail is the identity on the Q layer, so it is surjective by
    construction.  The boundary is lam on the level tensor square that
    `level_gamma` includes into, as in `boundary_map`.
    """
    g = free_nil(points)
    _, inc = level_gamma(n, g.q)
    bnd = AbMap(inc.target, g.c, g.lam)
    report = {"head_injective": inc.is_injective(),
              "composite_zero": bnd.compose(inc).is_zero(),
              "middle_exact": exact(inc, bnd),
              "boundary_hits_commutators": bnd.is_surjective()}
    report["exact"] = all(report.values())
    return report
