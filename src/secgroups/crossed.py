"""Crossed modules, reduced and stable quadratic modules, pointed groupoids.

The objects here are the level-indexed models: pointed groupoids at level
zero, crossed modules at level one, reduced quadratic modules at level two
and stable quadratic modules at level three and up.  All carry

    h0  --  the cokernel of the boundary (a group-like value), and
    h1  --  the kernel of the boundary (abelian once the axioms hold),

and a morphism is a weak equivalence exactly when it induces isomorphisms
on both.

Axiom checking is done on generators.  That is sufficient: every axiom
defect is (bi)linear in its arguments in a class-2 setting, so vanishing on
generators forces vanishing everywhere.  `check_axioms` returns a list of
human-readable violations instead of raising, so callers can report.  Each
check builds one boundary table, the boundary's values on the generators of
M (`values()`) and (in a quadratic module) the coordinates of those images
and of the base generators, and every axiom reads it.  A bilinear axiom
visits only the generator pairs where one of its two sides can be nonzero;
at any other pair both sides are the zero vector and the axiom holds.  On
a wedge, M is abelian and its boundary lands in the centre, so RQ2 visits
no pair.

Every object of level one and up acts on M through its base by `act(x,
n)`: a crossed module through its automorphisms, a quadratic module
through the pairing, x^n = x * omega({bnd x} (x) {n}).  A 2-morphism obeys
one derivation rule under that action at every level.  `quadratic_module`
is the one place that picks the reduced (level two) or stable (level three
and up) class from a level.

Every object has a base group `.base` (`.n` on quadratic modules): the
free group `FreeGroupBase` or a class-2 group at level one, a class-2 group
above.  Both kinds of base answer one interface (generators, the letters an
element acts by, elements, freeness, free homs, nilization, and the
homotopy groups of a boundary into them).  `AbCoords` gives a class-2 base
abelianized coordinates with a basis of base elements; only the objects of
level two and up read coordinates, and their bases are class-2.  The kind
of base is asked only where a free base is refused: `induced_h1`,
`induced_h0` and `h0_order`.  A map fed by words of a free base is a
`FreeBaseHom`; a boundary into a free base is a `WordHom`.  Every product
of powers in a class-2 group (a `FreeBaseHom` on a word, an omega pairing on
a tensor vector, a symmetrized pairing value) is collected by the one
closed form `nil2.Class2Group.power_product`.  `induced_h1` pulls back
through kernel inclusions by `nil2.Class2Hom.preimage`.  A `WordHom`'s
values must commute, as the image of a class-2 group in a free group is
cyclic.

A morphism, a pairing and a group action check themselves when built from
input.  The maps a morphism induces on h0 and h1 are derived from valid
objects and built unchecked, and
`test_fiber_parts_connecting_map_and_induced_maps_pass_their_checks` in
`tests/test_functors.py` holds them to their checks.

Over a free-group base, h1 is the kernel of an abelian M whose boundary
images are powers w^e_i of one word w: the `AbMap.kernel` of M -> Z,
x_i -> e_i, and nothing else.

Over a free-group base (level one) the exact identity problem for h0 is
undecidable in general; `h0` then returns a finite presentation and exact
queries raise `H0Undecidable` unless a bounded coset enumeration
(`order(cap=...)`) settles them.
"""

from __future__ import annotations

from . import intlinalg as la
from .abelian import AbMap, FinAbGroup, tensor_square_relations
from .coset import (DEFAULT_CAP, EnumerationCapExceeded,
                    FinitelyPresentedGroup, todd_coxeter)
from .nil2 import (Class2Elem, Class2Group, Class2Hom, below_diagonal,
                   free_nil, hom_cokernel, hom_from_values, hom_kernel,
                   identity_hom, pair_support)
from .words import PointedSet, Word, commutator_word


class H0Undecidable(RuntimeError):
    """Exact h0 question over a free base with no terminating enumeration."""


# ---------------------------------------------------------------------------
# free-group bases, word-fed maps and word-valued boundaries
# ---------------------------------------------------------------------------

class FreeGroupBase:
    """The free group on the non-base points of a pointed set, with reduced
    words as elements: a base group at level one, with the interface of
    `Class2Group` as a base."""

    wedge_index = None  # not a class-2 group

    def __init__(self, points: PointedSet):
        self.points = points
        self.gen_names = points.nonbase()
        self._index = {s: i for i, s in enumerate(self.gen_names)}

    def identity(self) -> Word:
        return Word()

    def generator(self, i: int) -> Word:
        return Word([(self.gen_names[i], 1)])

    def generators(self) -> list[Word]:
        return [self.generator(i) for i in range(len(self.gen_names))]

    def letters(self, word: Word) -> list[tuple[int, int]]:
        return [(self._index[s], e) for s, e in word.letters]

    def elements(self):
        raise ValueError("infinite object set")

    def is_free(self) -> bool:
        return True

    def free_hom(self, target: Class2Group, gen_images) -> "FreeBaseHom":
        return FreeBaseHom(self, target, gen_images)

    def nilization(self):
        """(free class-2 group on the same letters, the nilization map)."""
        g = free_nil(self.points)
        return g, self.free_hom(g, [g.generator(i) for i in range(g.q.ngens)])

    def h0_of(self, bnd: "WordHom") -> FinitelyPresentedGroup:
        """h0 of a boundary into this base: the presented quotient."""
        rels = [bnd.eval(g) for g in bnd.source.generators()]
        return FinitelyPresentedGroup(self.gen_names, rels)

    def h1_of(self, bnd: "WordHom") -> FinAbGroup:
        """h1 of a boundary into this base: its kernel, when the boundary
        images commute and the source is abelian.  The images are powers
        w^e_i of one root w, so the kernel is that of M -> Z, x_i -> e_i."""
        m = bnd.source
        exps = _root_exponents(bnd.q_images + bnd.c_images)
        if exps is None:
            raise NotImplementedError(
                "kernel over a free base needs commuting boundary images")
        if not m.is_abelian():
            raise NotImplementedError("nonabelian kernel over a free base")
        return AbMap(m.underlying_ab(), FinAbGroup(1), [exps],
                     check=False).kernel()[0]

    def __repr__(self):
        return "FreeGroupBase(%r)" % (self.gen_names,)


class FreeBaseHom:
    """Homomorphism from a free base into a class-2 group, by the images of
    its letters.  The nilization of a free base is one, and a `Class2Hom`
    composed after one is again one."""

    def __init__(self, source: FreeGroupBase, target: Class2Group,
                 gen_images):
        self.source = source
        self.target = target
        self.gen_images = list(gen_images)

    def eval(self, word: Word) -> Class2Elem:
        letters = self.source.letters(word)
        return self.target.power_product(
            [self.gen_images[i] for i, _ in letters], [e for _, e in letters])

    __call__ = eval

    def then(self, outer: Class2Hom) -> "FreeBaseHom":
        """outer after self."""
        return FreeBaseHom(self.source, outer.target,
                           [outer.eval(img) for img in self.gen_images])

    def __eq__(self, other):
        if not isinstance(other, FreeBaseHom):
            return NotImplemented
        return (self.source.gen_names == other.source.gen_names
                and self.target is other.target
                and self.gen_images == other.gen_images)


class WordHom:
    """Homomorphism from a Class2Group into a free group, by generator words."""

    def __init__(self, source: Class2Group, target: FreeGroupBase,
                 q_images, c_images=None, check: bool = True):
        self.source = source
        self.target = target
        self.q_images = [w.reduced() for w in q_images]
        if c_images is None:
            c_images = [Word() for _ in range(source.c.ngens)]
        self.c_images = [w.reduced() for w in c_images]
        if check:
            self.validate()

    def eval(self, elem: Class2Elem) -> Word:
        w = Word()
        for i, a in enumerate(elem.qvec):
            if a:
                w = w * (self.q_images[i] ** a)
        resid = la.vec_sub(elem.cvec, self.source.collect_central(elem.qvec))
        for j, a in enumerate(resid):
            if a:
                w = w * (self.c_images[j] ** a)
        return w.reduced()

    __call__ = eval

    def values(self) -> list[Word]:
        """The values on `source.generators()`: the Q generators' words,
        then the C generators' words, as `eval` returns them there."""
        return self.q_images + self.c_images

    def validate(self):
        s = self.source
        # commutator layer must map to honest commutators
        nq = s.q.ngens
        for i in range(nq):
            for j in range(nq):
                lv = s.lam_eval([1 if k == i else 0 for k in range(nq)],
                                [1 if k == j else 0 for k in range(nq)])
                img = Word()
                for p, a in enumerate(lv):
                    img = img * (self.c_images[p] ** a)
                want = commutator_word(self.q_images[i], self.q_images[j])
                if img != want:
                    raise ValueError("boundary breaks commutators (%d,%d)" % (i, j))
        for rel in s.q.relations:
            if not self.eval(s.element(rel)).is_trivial():
                raise ValueError("Q relation %r survives in the free group" % (rel,))
        for rel in s.c.relations:
            if not self.eval(s.central(rel)).is_trivial():
                raise ValueError("C relation %r survives in the free group" % (rel,))
        # the image of a class-2 group in a free group is cyclic: every
        # value commutes with the first nontrivial one
        vals = [w for w in self.values() if not w.is_trivial()]
        if any(w * vals[0] != vals[0] * w for w in vals[1:]):
            raise ValueError("boundary images do not commute")


def _root_exponents(words: list[Word]):
    """Exponents e_i with every input w^e_i for one word w, or None.

    The first nontrivial input is u v u^-1 with v cyclically reduced, and w
    is u r u^-1 for r the primitive root of v: each input conjugated by u
    is r^e, e its length over r's, signed (commuting inputs only)."""
    nontrivial = [w for w in words if not w.is_trivial()]
    if not nontrivial:
        return [0] * len(words)
    flat = [(s, 1 if e > 0 else -1)
            for s, e in nontrivial[0].reduced().letters for _ in range(abs(e))]
    c = 0  # the length of u: inverse letters matched at both ends
    while (len(flat) - 2 * c > 1
           and flat[c] == (flat[-1 - c][0], -flat[-1 - c][1])):
        c += 1
    u, v = Word(flat[:c]), flat[c:len(flat) - c]
    r = next(p for p in range(1, len(v) + 1) if len(v) % p == 0
             and Word(v[:p]) ** (len(v) // p) == Word(v))
    root, exps = Word(v[:r]), []
    for w in words:
        w = u.inverse() * w * u
        e = sum(abs(x) for _, x in w.letters) // r
        if root ** e == w:
            exps.append(e)
        elif root ** -e == w:
            exps.append(-e)
        else:
            return None
    return exps


# ---------------------------------------------------------------------------
# abelianized coordinates of a base group
# ---------------------------------------------------------------------------

class AbCoords:
    """Abelianization of a class-2 base group with explicit coordinates.

    When the central layer is generated by commutators the abelianization
    is just the Q layer; otherwise the full pair presentation is used.
    `of` gives the first `group.ngens` entries of (q, c), so the letters
    and, in the full presentation, the central generators; `basis` lists
    base elements whose coordinates are the unit vectors of `group`.
    """

    def __init__(self, base: Class2Group):
        self.base = base
        lam_cols = la.transpose(base.lam, base.q.ngens ** 2)
        if la.in_lattice(lam_cols + base.c.relations, base.c.ngens,
                         *la.identity(base.c.ngens)):
            self.group = FinAbGroup(base.q.ngens, base.q.relations)
        else:
            self.group = base.abelianization()
        self.basis = base.generators()[:self.group.ngens]

    def of(self, elem: Class2Elem) -> list[int]:
        return (list(elem.qvec) + list(elem.cvec))[:self.group.ngens]


# ---------------------------------------------------------------------------
# actions (level one)
# ---------------------------------------------------------------------------

class GroupAction:
    """Action of the base on M, one automorphism of M per base generator.

    A class-2 base must have its central layer generated by commutators so
    that central elements act through the generator automorphisms.
    """

    def __init__(self, base, m: Class2Group, autos: list[Class2Hom],
                 check: bool = True):
        self.base = base
        self.m = m
        self.autos = list(autos)
        self._inverses = None
        if len(self.autos) != len(base.gen_names):
            raise ValueError("need one automorphism per base generator")
        if check:
            for a in self.autos:
                if not a.is_isomorphism():
                    raise ValueError("action is not by automorphisms")

    @classmethod
    def trivial(cls, base, m: Class2Group):
        return cls(base, m, [identity_hom(m)] * len(base.gen_names),
                   check=False)

    def inverses(self):
        if self._inverses is None:
            self._inverses = [a.inverse() for a in self.autos]
        return self._inverses

    def act(self, x: Class2Elem, n) -> Class2Elem:
        """x acted on by the base element n (Word or Class2Elem)."""
        out = x
        for idx, exp in self.base.letters(n):
            auto = self.autos[idx] if exp > 0 else self.inverses()[idx]
            for _ in range(abs(exp)):
                out = auto.eval(out)
        return out


# ---------------------------------------------------------------------------
# omega pairings (levels two and three)
# ---------------------------------------------------------------------------

class OmegaPairing:
    """The quadratic pairing: images in M for the tensor-square basis of N_ab.

    No tensor-square group is built: `validate` reads the relation rows of
    the tensor square off the coordinate group's relations, and evaluation
    needs only the images.  That the images commute is tested only on the
    pairs `nil2.pair_support` gives for M's cocycle.
    """

    def __init__(self, coords: AbCoords, m: Class2Group, images, check=True):
        self.coords = coords
        self.m = m
        self.images = list(images)
        na = coords.group.ngens
        if len(self.images) != na * na:
            raise ValueError("need one image per tensor basis element")
        if check:
            self.validate()

    def validate(self):
        # x*y and y*x differ only by beta(x, y) - beta(y, x) in the C layer,
        # zero unless beta pairs the two images in some order
        qs = [x.qvec for x in self.images]
        for i, j in below_diagonal(pair_support(self.m._beta_terms, qs, qs)):
            comm = la.vec_sub(self.m.beta_eval(qs[i], qs[j]),
                              self.m.beta_eval(qs[j], qs[i]))
            if not self.m.c.contains_in_lattice(comm):
                raise ValueError("omega images do not commute")
        for rel in tensor_square_relations(self.coords.group):
            if not self.eval_vec(rel).is_identity():
                raise ValueError("omega not defined modulo relations")

    def eval_vec(self, vec) -> Class2Elem:
        return self.m.power_product(self.images, vec)

    def symmetrized(self, i: int, j: int) -> Class2Elem:
        """omega(e_i (x) e_j + e_j (x) e_i): the product of its one or two
        images in index order, the one image squared when i == j."""
        na = self.coords.group.ngens
        p, q = sorted((i * na + j, j * na + i))
        if p == q:
            return self.m.power_product([self.images[p]], [2])
        return self.m.power_product([self.images[p], self.images[q]], [1, 1])

    def pair(self, a_vec, b_vec) -> Class2Elem:
        """eval_vec of a (x) b, collected over the nonzero (i, j) in the
        row-major order of the tensor basis: `power_product` skips a zero
        exponent, so no Kronecker vector is built."""
        nb = len(b_vec)
        live_b = [(j, y) for j, y in enumerate(b_vec) if y]
        elems, exps = [], []
        for i, x in enumerate(a_vec):
            if x:
                for j, y in live_b:
                    elems.append(self.images[i * nb + j])
                    exps.append(x * y)
        return self.m.power_product(elems, exps)

    def pair_elems(self, x, y) -> Class2Elem:
        return self.pair(self.coords.of(x), self.coords.of(y))

    def centrality_violations(self) -> list[str]:
        out = []
        for k, img in enumerate(self.images):
            if not img.is_central():
                out.append("omega image %d is not central" % k)
        return out


# ---------------------------------------------------------------------------
# the level-indexed objects
# ---------------------------------------------------------------------------

class PointedGroupoid:
    """Level-0 object: finite groupoid with a base object named *."""

    level = 0

    def __init__(self, objects, morphisms, compose_table, base="*"):
        """morphisms: dict name -> (src, tgt); compose_table maps
        (g, f) -> g after f ... stored as (second, first) -> name."""
        self.objects = list(objects)
        self.base = base
        if base not in self.objects:
            self.objects = [base] + self.objects
        self.morphisms = dict(morphisms)
        self.compose_table = dict(compose_table)

    def source(self, f):
        return self.morphisms[f][0]

    def target(self, f):
        return self.morphisms[f][1]

    def compose(self, g, f):
        """g after f (requires target(f) == source(g))."""
        return self.compose_table[(g, f)]

    def check_axioms(self) -> list[str]:
        """Violations of the groupoid axioms, never an exception: a
        composite that names an unknown morphism, is not composable or has
        the wrong endpoints, a missing composite, and associativity on the
        triples whose composites are all present and known."""
        out = []
        mors, table = self.morphisms, self.compose_table
        for (g, f), h in table.items():
            unknown = [x for x in (g, f, h) if x not in mors]
            if unknown:
                out.append("composite (%s,%s) names unknown morphism %s"
                           % (g, f, unknown[0]))
            elif self.target(f) != self.source(g):
                out.append("composite (%s,%s) not composable" % (g, f))
            elif (self.source(h) != self.source(f)
                  or self.target(h) != self.target(g)):
                out.append("composite (%s,%s) has wrong endpoints" % (g, f))
        for f, (fs, ft) in mors.items():
            for g, (gs, gt) in mors.items():
                if ft == gs and (g, f) not in table:
                    out.append("missing composite (%s,%s)" % (g, f))

        def known(g, f):
            h = table.get((g, f))
            return h if h in mors else None

        # associativity
        for f in mors:
            for g in mors:
                for h in mors:
                    if (self.target(f) == self.source(g)
                            and self.target(g) == self.source(h)):
                        left = known(h, known(g, f))
                        right = known(known(h, g), f)
                        if None not in (left, right) and left != right:
                            out.append("associativity fails at (%s,%s,%s)"
                                       % (h, g, f))
        return out

    def iso_classes(self):
        classes = []
        seen = set()
        for o in self.objects:
            if o in seen:
                continue
            cls = {o}
            changed = True
            while changed:
                changed = False
                for f, (s, t) in self.morphisms.items():
                    if s in cls and t not in cls:
                        cls.add(t)
                        changed = True
                    if t in cls and s not in cls:
                        cls.add(s)
                        changed = True
            seen |= cls
            classes.append(sorted(cls, key=self.objects.index))
        return classes

    def h0(self) -> PointedSet:
        reps = [c[0] if self.base not in c else "*" for c in self.iso_classes()]
        return PointedSet([r for r in reps if r != "*"])

    def automorphisms(self, obj):
        return [f for f, (s, t) in self.morphisms.items() if s == t == obj]

    def h1(self, obj=None) -> FinitelyPresentedGroup:
        """The automorphism group at obj (the base by default) as a
        FinitelyPresentedGroup, by its multiplication table."""
        auts = self.automorphisms(self.base if obj is None else obj)
        return FinitelyPresentedGroup(
            auts, [Word.parse("%s %s %s^-1" % (f, g, self.compose(g, f)))
                   for g in auts for f in auts])


class CrossedModule:
    """Level-1 object: boundary from M to a base group plus an action."""

    level = 1

    def __init__(self, m: Class2Group, base, bnd, action: GroupAction):
        self.m = m
        self.base = base
        self.bnd = bnd
        self.action = action

    def act(self, x: Class2Elem, n) -> Class2Elem:
        return self.action.act(x, n)

    def check_axioms(self) -> list[str]:
        out = []
        m_gens = self.m.generators()
        base_gens = self.base.generators()
        dm = self.bnd.values()
        for i, mg in enumerate(m_gens):
            for j, ng in enumerate(base_gens):
                lhs = self.bnd.eval(self.act(mg, ng))
                rhs = dm[i].conjugate_by(ng)
                if not lhs == rhs:
                    out.append("CM1 fails at m gen %d, base gen %d" % (i, j))
        for i, mg in enumerate(m_gens):
            for j, mg2 in enumerate(m_gens):
                lhs = self.act(mg, dm[j])
                rhs = mg2.inverse() * mg * mg2
                if not lhs == rhs:
                    out.append("CM2 fails at m gens %d,%d" % (i, j))
        return out

    def h0(self):
        return self.base.h0_of(self.bnd)

    def h0_order(self, cap: int = DEFAULT_CAP):
        h = self.h0()
        if isinstance(h, FinitelyPresentedGroup):
            try:
                return todd_coxeter(h, cap=cap)
            except EnumerationCapExceeded as exc:
                raise H0Undecidable(str(exc)) from exc
        return h.order()

    def h1(self) -> FinAbGroup:
        return self.base.h1_of(self.bnd)


class ReducedQuadraticModule:
    """Level-2 object: central boundary with the quadratic pairing omega."""

    level = 2

    def __init__(self, m: Class2Group, n: Class2Group, bnd: Class2Hom,
                 omega: OmegaPairing):
        self.m = m
        self.n = n
        self.bnd = bnd
        self.omega = omega
        self.coords = omega.coords

    @property
    def base(self) -> Class2Group:
        """The base group: a read-only alias of `n`."""
        return self.n

    def act(self, x: Class2Elem, n: Class2Elem) -> Class2Elem:
        """x acted on by the base element n: x * omega({bnd x} (x) {n})."""
        return x * self.omega.pair_elems(self.bnd.eval(x), n)

    def check_axioms(self) -> list[str]:
        """RQ1-RQ3 and a central boundary, on generators, in the order of
        the generator pairs.  RQ1 and RQ2 equate a pairing of coordinate
        vectors with a commutator of generators, so only the pairs where a
        side can be nonzero are visited: both coordinate vectors nonzero,
        or a nonzero commutator (`commutator_support`).  Any other pair
        compares the zero vector with the zero vector, which holds.  RQ3
        likewise visits only pairs of nonzero coordinate vectors."""
        out = list(self.omega.centrality_violations())
        n_gens = self.n.generators()
        m_gens = self.m.generators()
        # the boundary table
        dm = self.bnd.values()
        dm_ab = [self.coords.of(d) for d in dm]
        n_ab = [self.coords.of(x) for x in n_gens]
        for i, j in _bilinear_pairs(n_ab, self.n):
            if any(n_ab[i]) and any(n_ab[j]):
                lhs = self.bnd.eval(self.omega.pair(n_ab[i], n_ab[j]))
            else:
                lhs = self.n.identity()
            if not lhs == n_gens[i].commutator(n_gens[j]):
                out.append("RQ1 fails at base gens %d,%d" % (i, j))
        for i, j in _bilinear_pairs(dm_ab, self.m):
            if any(dm_ab[i]) and any(dm_ab[j]):
                lhs = self.omega.pair(dm_ab[i], dm_ab[j])
            else:
                lhs = self.m.identity()
            if not lhs == m_gens[i].commutator(m_gens[j]):
                out.append("RQ2 fails at m gens %d,%d" % (i, j))
        for i, da in enumerate(dm_ab):
            for j, xv in enumerate(n_ab):
                if not (any(da) and any(xv)):
                    continue
                val = self.omega.eval_vec(
                    la.vec_add(la.kron(da, xv), la.kron(xv, da)))
                if not val.is_identity():
                    out.append("RQ3 fails at m gen %d, base gen %d" % (i, j))
        if not all(d.is_central() for d in dm):
            out.append("boundary image is not central in the base")
        return out

    def h0(self) -> Class2Group:
        return self.base.h0_of(self.bnd)

    def h1(self) -> FinAbGroup:
        return self.base.h1_of(self.bnd)


class StableQuadraticModule(ReducedQuadraticModule):
    """Level >= 3: omega also kills the symmetrized tensor square."""

    def __init__(self, m, n, bnd, omega, level: int = 3):
        if level < 3:
            raise ValueError("a stable quadratic module needs level >= 3, "
                             "not %d" % level)
        super().__init__(m, n, bnd, omega)
        self.level = level

    def check_axioms(self) -> list[str]:
        """The reduced axioms, then stability: every symmetrized value
        omega(e_i (x) e_j + e_j (x) e_i) is the identity."""
        out = super().check_axioms()
        na = self.coords.group.ngens
        # (i, j) and (j, i) test one element: each unordered pair once
        fails = {(i, j) for i in range(na) for j in range(i, na)
                 if not self.omega.symmetrized(i, j).is_identity()}
        out += ["stability fails at (%d,%d)" % (i, j) for i in range(na)
                for j in range(na) if (min(i, j), max(i, j)) in fails]
        return out


def _bilinear_pairs(vecs, group: Class2Group) -> list[tuple[int, int]]:
    """The generator pairs (i, j), sorted, where a pairing of the coordinate
    vectors vecs[i], vecs[j] or the commutator of generators i and j of
    group can be nonzero: both vectors nonzero, or a pair of Q generators
    in the commutator support."""
    live = [i for i, v in enumerate(vecs) if any(v)]
    return sorted({(i, j) for i in live for j in live}
                  | group.commutator_support())


def quadratic_module(m: Class2Group, n: Class2Group, bnd: Class2Hom,
                     omega: OmegaPairing, level: int):
    """The quadratic module of a level >= 2: reduced at level two, stable
    above; a level below 2 is refused by the stable class."""
    if level == 2:
        return ReducedQuadraticModule(m, n, bnd, omega)
    return StableQuadraticModule(m, n, bnd, omega, level=level)


def check_axioms(x) -> list[str]:
    """Uniform axiom check across levels; returns violation strings."""
    return x.check_axioms()


# ---------------------------------------------------------------------------
# morphisms and weak equivalences
# ---------------------------------------------------------------------------

class CrossMorphism:
    """A morphism (f1 on M, f0 on the base) of same-level objects."""

    _fiber = None  # set by functors.fiber on first use

    def __init__(self, src, tgt, f1: Class2Hom, f0, check: bool = True):
        self.src = src
        self.tgt = tgt
        self.f1 = f1
        self.f0 = f0
        if check:
            self.validate()

    def validate(self):
        """The boundary square on the generators of M, read off the values
        of f1 and of the source boundary; then the action (level one) or
        the omega square (level two and up), in the row-major order of
        the pairs (i, j) of coordinate generators.  An omega pair is
        skipped only where its source image is the zero vector and column
        i or j of f0's abelianized matrix is zero: both sides are then
        exactly the identity.  A failure names its M generator or pair."""
        s, t = self.src, self.tgt
        for k, (m1, d) in enumerate(zip(self.f1.values(), s.bnd.values())):
            if not t.bnd.eval(m1) == self.f0.eval(d):
                raise ValueError("boundary square does not commute at M "
                                 "generator %d" % k)
        if s.level == 1:
            base_gens = s.base.generators()
            for mg in s.m.generators():
                for ng in base_gens:
                    lhs = self.f1.eval(s.act(mg, ng))
                    rhs = t.act(self.f1.eval(mg), self.f0.eval(ng))
                    if not lhs == rhs:
                        raise ValueError("morphism breaks the action")
        else:
            na = s.coords.group.ngens
            cols = self._f0_ab_columns()
            live = [any(c) for c in cols]
            for i in range(na):
                for j in range(na):
                    img = s.omega.images[i * na + j]
                    if not (live[i] and live[j] or any(img.qvec)
                            or any(img.cvec)):
                        continue
                    lhs = self.f1.eval(img)
                    rhs = t.omega.pair(cols[i], cols[j])
                    if not lhs == rhs:
                        raise ValueError("morphism breaks omega at (%d,%d)"
                                         % (i, j))

    def _f0_ab_columns(self):
        """The columns of f0 on abelianized coordinates: the coordinates of
        f0's values on the source's coordinate basis, its first
        generators."""
        s, t = self.src, self.tgt
        return [t.coords.of(v)
                for v in self.f0.values()[:len(s.coords.basis)]]

    # -- induced maps -----------------------------------------------------------

    def induced_h1(self) -> AbMap:
        if any(isinstance(x.base, FreeGroupBase) for x in (self.src, self.tgt)):
            raise NotImplementedError("induced h1 over a free base is not "
                                      "implemented")
        ks, kis = hom_kernel(self.src.bnd)
        kt, kit = hom_kernel(self.tgt.bnd)
        h1s, h1t = ks.underlying_ab(), kt.underlying_ab()
        cols = []
        for v in kis.values():
            x = kit.preimage(self.f1.eval(v))
            if x is None:
                raise ValueError("element not in subgroup")
            cols.append(x.qvec + x.cvec)
        return AbMap(h1s, h1t, la.transpose(cols, h1t.ngens), check=False)

    def induced_h0(self):
        s, t = self.src, self.tgt
        cs = s.h0()
        if isinstance(cs, FinitelyPresentedGroup):
            raise H0Undecidable("induced h0 over a free base is a "
                                "presentation-level statement only")
        # generator i of cs is the image of (e_i, -T e_i), a section of the
        # projection e_i -> (e_i, T e_i), whose central map is the identity
        gens = hom_cokernel(s.bnd)[1].gen_images
        values = [self.f0.eval(s.base.element(g.qvec, [-x for x in g.cvec]))
                  for g in gens] + self.f0.values()[len(gens):]
        ct, pt = hom_cokernel(t.bnd)
        return hom_from_values(cs, ct, [pt.eval(v) for v in values],
                               check=False)

    def is_weak_equivalence(self) -> bool:
        if not self.induced_h1().is_isomorphism():
            return False
        return self.induced_h0().is_isomorphism()

