"""Track calculus: homotopies between maps of free class-2 groups, and
2-morphisms between morphisms of crossed / quadratic modules.

A `HopfTrack` at level n is a homotopy between two homomorphisms of free
class-2 groups whose difference is measured by a linear map `alpha` from
the free abelian group on the source letters into the level-n tensor-square
group on the target letters:

    tgt(x) = src(x) * boundary(alpha({x}))    for every generator x.

`alpha` plays the role of a Hopf invariant; the classical Hopf invariant of
a sphere map carries the opposite sign, recorded once in
`CLASSICAL_HOPF_SIGN`.

Track operations: vertical composition adds the measures; whiskering on the
right acts through the abelianization of the precomposed map, whiskering on
the left through the tensor-square of the postcomposed map; suspension out
of level two projects through the symmetrized quotient and is the identity
above.  `tracks_between` decides whether two maps are connected by a track
and returns the kernel of the level boundary, under which the set of tracks
is a torsor generator by generator.

`TwoMorphism` is the corresponding notion for morphisms of crossed (level
one) or quadratic (level two and up) modules.  It obeys one derivation rule
under the target's action on M, which a quadratic module takes from its
pairing; that the pairing values are central, as the quadratic-module
axioms require, is what makes the rule the quadratic one.  At level two and
up, when the pairing coordinates are the Q layer, the rule makes a
2-morphism its generator values plus a bilinear correction, and it is
evaluated in closed form by one product of powers, the polynomial
collection of Deep Thought (Leedham-Green and Soicher 1998).  At level one,
whose action is by arbitrary automorphisms, and on other coordinates, it
is evaluated letter by letter.

2-morphisms form a 2-category, so a vertical composite, a whisker or an
inverse of valid ones is valid.  From level two up such a derived
2-morphism is built unchecked, and so is its companion; at level one both
are still checked, and so is every companion (ROADMAP item 4).  Input to
the public constructor is checked by default, companion included.
`tests/test_tracks.py` holds each derived 2-morphism to the one built with
every check on, and `tests/test_check_sites.py` counts no check in the
interchange law from level two up.
"""

from __future__ import annotations

from . import intlinalg as la
from .abelian import AbMap, FinAbGroup, tensor_square_map, zero_map
from .crossed import CrossMorphism
from .nil2 import Class2Elem, Class2Hom, boundary_map, hom_from_values
from .words import Word

CLASSICAL_HOPF_SIGN = -1


class HopfTrack:
    """A track src => tgt between maps of free class-2 groups, with its
    measure `alpha` into the level tensor-square group on the target letters."""

    def __init__(self, n: int, src: Class2Hom, tgt: Class2Hom,
                 alpha: AbMap, check: bool = True):
        if n < 2:
            raise ValueError("tracks carry a measure at level >= 2 only")
        self.n = n
        self.src = src
        self.tgt = tgt
        self.alpha = alpha
        self.lts, self.bmap, self.from_plain, _ = boundary_map(n, src.target)
        if check:
            self.validate()

    def validate(self):
        s, t = self.src, self.tgt
        if s.source is not t.source or s.target is not t.target:
            raise ValueError("track endpoints have different ends")
        g = s.source
        if len(self.alpha.matrix) != self.lts.ngens or (
                self.alpha.matrix and len(self.alpha.matrix[0]) != g.q.ngens):
            raise ValueError("measure has the wrong shape")
        for i in range(g.q.ngens):
            x = g.generator(i)
            av = [self.alpha.matrix[r][i] for r in range(self.lts.ngens)]
            defect = s.target.central(la.mat_vec(self.bmap.matrix, av))
            if not t.eval(x) == s.eval(x) * defect:
                raise ValueError(
                    "measure does not witness the difference at generator %d"
                    % i)

    def __eq__(self, other):
        if not isinstance(other, HopfTrack):
            return NotImplemented
        return (self.n == other.n and self.src == other.src
                and self.tgt == other.tgt and self.alpha == other.alpha)

    def __hash__(self):
        raise TypeError("HopfTrack is unhashable")


def hopf(track: HopfTrack) -> AbMap:
    """The measure of a track (negate for the classical sphere-map sign)."""
    return track.alpha


def nil_track(n: int, phi: Class2Hom) -> HopfTrack:
    """The identity track on phi: the unique track with zero measure."""
    lts, _, _, _ = boundary_map(n, phi.target)
    zero = zero_map(FinAbGroup(phi.source.q.ngens), lts)
    return HopfTrack(n, phi, phi, zero)


def tracks_between(n: int, phi: Class2Hom, psi: Class2Hom):
    """(a track phi => psi, or None) and the kernel group of the level
    boundary, which acts simply transitively on the tracks at each source
    generator."""
    lts, bmap, _, _ = boundary_map(n, phi.target)
    kernel_group, _ = bmap.kernel()
    g = phi.source
    cols = []
    for i in range(g.q.ngens):
        x = g.generator(i)
        diff = phi.eval(x).inverse() * psi.eval(x)
        if not phi.target.q.contains_in_lattice(diff.qvec):
            return None, kernel_group
        v = la.solve_mod(bmap.matrix, lts.ngens, diff.cvec,
                         phi.target.c.relations)
        if v is None:
            return None, kernel_group
        cols.append(v)
    alpha = AbMap(FinAbGroup(g.q.ngens), lts,
                  la.transpose(cols, lts.ngens), check=False)
    return HopfTrack(n, phi, psi, alpha), kernel_group


def vcomp(second: HopfTrack, first: HopfTrack) -> HopfTrack:
    """Vertical pasting (phi => psi) then (psi => chi); measures add."""
    if first.n != second.n or not second.src == first.tgt:
        raise ValueError("tracks are not pasteable")
    return HopfTrack(first.n, first.src, second.tgt,
                     first.alpha + second.alpha)


def whisker_right(track: HopfTrack, k: Class2Hom) -> HopfTrack:
    """Precompose a track with a map k into its source letters: the measure
    is pulled back along the abelianization of k."""
    if k.target is not track.src.source:
        raise ValueError("the map does not land in the track's source group")
    kab = k.q_map()
    alpha = AbMap(FinAbGroup(k.source.q.ngens), track.lts,
                  la.mat_mul(track.alpha.matrix, kab.matrix), check=False)
    return HopfTrack(track.n, track.src.compose(k), track.tgt.compose(k),
                     alpha)


def whisker_left(h: Class2Hom, track: HopfTrack) -> HopfTrack:
    """Postcompose a track with a map h out of its target letters: the
    measure is pushed forward along the tensor square of h, the Kronecker
    square of its abelianization, from the track's level square into the
    one on h's target letters."""
    if h.source is not track.src.target:
        raise ValueError("the map does not start at the track's target group")
    n = track.n
    lts = boundary_map(n, h.target)[0]
    # the level squares keep the plain basis, so the same matrix drives the
    # symmetrized quotients at levels >= 3
    tmap = tensor_square_map(h.q_map(), track.lts, lts)
    alpha = AbMap(track.alpha.source, lts,
                  la.mat_mul(tmap.matrix, track.alpha.matrix), check=False)
    return HopfTrack(n, h.compose(track.src), h.compose(track.tgt), alpha)


def suspend_track(track: HopfTrack) -> HopfTrack:
    """Suspension: out of level 2 the measure projects through the
    symmetrized quotient; at level >= 3 it is unchanged."""
    n = track.n
    if n == 2:
        lts3, _, from_plain, _ = boundary_map(3, track.src.target)
        alpha = AbMap(track.alpha.source, lts3,
                      la.mat_mul(from_plain.matrix, track.alpha.matrix),
                      check=False)
        return HopfTrack(3, track.src, track.tgt, alpha)
    return HopfTrack(n + 1, track.src, track.tgt, track.alpha)


# ---------------------------------------------------------------------------
# 2-morphisms between morphisms of crossed / quadratic modules
# ---------------------------------------------------------------------------

class TwoMorphism:
    """A 2-morphism f => g between morphisms x -> y of the same level,
    given by its values on the base generators of x.

    Every level obeys the derivation rule
        alpha(a b) = alpha(a) ^ f0(b) * alpha(b)
    under the action of y.  At level two and up that action is
    m ^ n = m * omega'({d' m} (x) {n}); omega' is central, so the rule
    reads alpha(a b) = alpha(a) * alpha(b) * omega'({d' alpha(a)} (x) {f0 b}).
    The companion morphism g, with g0 = f0 * (d' alpha) and
    g1 = f1 * (alpha d), is derived on construction, and validated with
    its two maps when `check` is set and, whatever `check` says, at level
    one (ROADMAP item 4).  g1 is built from its values on the
    generators of M by `hom_from_values`, which refuses a central
    generator whose value is not central even unchecked.

    The letter rule, `eval_word`, folds a word over a table held per
    2-morphism: for each base generator e, the pairs (f0(e), alpha(e)) and
    (f0(e^-1), alpha(e^-1)), where alpha(e^-1) = (alpha(e)^{f0(e)^-1})^-1.

    At level two and up, when the target's pairing coordinates are the Q
    layer, `eval` takes (q, c) in closed form instead:
        alpha(q, c) = prod_i alpha(e_i)^q_i * prod_i W_ii^binom(q_i, 2)
                      * prod_{i<j} W_ij^(q_i q_j) * prod_r alpha(z_r)^c'_r
    with W_ij = omega'({d' alpha(e_i)} (x) {f0 e_j}), the z_r the central
    generators of the base and c' = c - collect_central(q).  The W_ij
    and the alpha(z_r), the latter by the letter rule, are computed once
    on construction.  It is exact for any values: {d' .} and {f0 .} are
    additive in Q coordinates, since RQ1 sends d' omega' to commutators;
    omega' is central and bilinear; binom(q, 2) also covers negative q, as
    alpha(e^-1) = alpha(e)^-1 * W_ee; and alpha is additive on the centre,
    where {f0 .} vanishes.  Otherwise, at level one or on coordinates
    with central generators, `eval` spells (q, c) through the base's
    `letters` and folds it by the letter rule.  Either way `eval` refuses
    an element of a group whose Q and C differ from the base's
    (`same_presentation`).

    The base of x must be a free class-2 group: the companion's g0 is
    forced on the commutators through `free_hom`, which needs one.
    """

    def __init__(self, f: CrossMorphism, values, check: bool = True):
        self.f = f
        self.x = f.src
        self.y = f.tgt
        self.values = list(values)
        base = self.x.base
        if base.wedge_index is None:
            raise NotImplementedError(
                "2-morphisms need a free class-2 base to force the "
                "companion's base map")
        if len(self.values) != base.q.ngens:
            raise ValueError("need one value per base generator")
        self._table = {}
        for i, v in enumerate(self.values):
            e = base.generator(i)
            up, down = f.f0.eval(e), f.f0.eval(e ** -1)
            # from 1 = alpha(e)^{f0(e^-1)} alpha(e^-1)
            inv = self.y.act(v, up.inverse()).inverse()
            self._table[base.gen_names[i]] = ((up, v), (down, inv))
        self._factors = None
        if (self.y.level >= 2
                and len(self.y.coords.basis) == self.y.base.q.ngens):
            self._factors = self._closed_form_factors()
        self.g = self._derive_companion(check or self.y.level == 1)
        if check:
            self.validate()

    # -- evaluation ---------------------------------------------------------

    def eval_word(self, word: Word) -> Class2Elem:
        out = self.y.m.identity()
        for sym, e in word.letters:
            img, val = self._table[sym][e < 0]
            for _ in range(abs(e)):
                out = self.y.act(out, img) * val
        return out

    def _spell(self, elem: Class2Elem) -> Word:
        names = self.x.base.gen_names
        return Word([(names[i], e)
                     for i, e in self.x.base.letters(elem)]).reduced()

    def _closed_form_factors(self) -> list[Class2Elem]:
        """The factors of `eval`'s closed form: the alpha(e_i), the W_ij
        for i <= j row by row, and the alpha(z_r)."""
        y, base = self.y, self.x.base
        nq = base.q.ngens
        d = [y.coords.of(y.bnd.eval(v)) for v in self.values]
        fe = [y.coords.of(up) for (up, _), _ in self._table.values()]
        w = [y.omega.pair(d[i], fe[j])
             for i in range(nq) for j in range(i, nq)]
        central = [self.eval_word(self._spell(base.central_generator(r)))
                   for r in range(base.c.ngens)]
        return self.values + w + central

    def eval(self, elem: Class2Elem) -> Class2Elem:
        base, g = self.x.base, elem.group
        if g is not base and not (g.q.same_presentation(base.q)
                                  and g.c.same_presentation(base.c)):
            raise ValueError("2-morphism on %r evaluated at an element of "
                             "%r" % (base, g))
        if self._factors is None:
            return self.eval_word(self._spell(elem))
        q = elem.qvec
        nq = len(q)
        exps = (q + [q[i] * q[j] if i < j else q[i] * (q[i] - 1) // 2
                     for i in range(nq) for j in range(i, nq)]
                + la.vec_sub(elem.cvec, base.collect_central(q)))
        return self.y.m.power_product(self._factors, exps)

    # -- the companion morphism ----------------------------------------------

    def _derive_companion(self, check: bool) -> CrossMorphism:
        x, y, f = self.x, self.y, self.f
        g0_imgs = [up * y.bnd.eval(v) for (up, v), _ in self._table.values()]
        g0 = x.base.free_hom(y.base, g0_imgs, check=check)
        g1 = hom_from_values(x.m, y.m, [f.f1.eval(g) * self.eval(x.bnd.eval(g))
                                        for g in x.m.generators()],
                             check=check)
        return CrossMorphism(x, y, g1, g0, check=check)

    # -- validation -----------------------------------------------------------

    def validate(self):
        """The derivation rule on base generator pairs, for the closed
        form only: on the letter rule a b is spelled as a word that
        reduces freely to a b, so both sides are one fold."""
        if self._factors is None:
            return
        x, y = self.x, self.y
        gens = [x.base.generator(i) for i in range(x.base.q.ngens)]
        for a in gens:
            for b in gens:
                lhs = self.eval(a * b)
                rhs = y.act(self.eval(a), self.f.f0.eval(b)) * self.eval(b)
                if not lhs == rhs:
                    raise ValueError(
                        "derivation rule fails on a generator pair")

    # -- operations -------------------------------------------------------------

    def inverse(self) -> "TwoMorphism":
        """The reversed 2-morphism g => f, with inverted values."""
        return _derived(self.g, [v.inverse() for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, TwoMorphism):
            return NotImplemented
        return (self.f.f0 == other.f.f0 and self.f.f1 == other.f.f1
                and all(a == b for a, b in zip(self.values, other.values)))

    def __hash__(self):
        raise TypeError("TwoMorphism is unhashable")


def _derived(f: CrossMorphism, values) -> TwoMorphism:
    """A 2-morphism derived from valid ones, which is valid because they
    form a 2-category: built unchecked, with its companion, from level two
    up; at level one both are still checked (ROADMAP item 4)."""
    return TwoMorphism(f, values, check=f.tgt.level == 1)


def vcomp2(second: TwoMorphism, first: TwoMorphism) -> TwoMorphism:
    """Vertical pasting (f => g) then (g => h); values multiply."""
    if not (second.f.f0 == first.g.f0 and second.f.f1 == first.g.f1):
        raise ValueError("2-morphisms are not pasteable")
    vals = [a * b for a, b in zip(first.values, second.values)]
    return _derived(first.f, vals)


def whisker_right2(alpha: TwoMorphism, k: CrossMorphism) -> TwoMorphism:
    """alpha whiskered by k: w -> x on the source side."""
    if k.tgt is not alpha.x:
        raise ValueError("the morphism does not land in the 2-morphism's "
                         "source module")
    base_w = k.src.base
    vals = [alpha.eval(k.f0.eval(base_w.generator(i)))
            for i in range(base_w.q.ngens)]
    fk = CrossMorphism(k.src, alpha.y, alpha.f.f1.compose(k.f1),
                       alpha.f.f0.compose(k.f0), check=False)
    return _derived(fk, vals)


def whisker_left2(h: CrossMorphism, alpha: TwoMorphism) -> TwoMorphism:
    """alpha whiskered by h: y -> z on the target side."""
    if h.src is not alpha.y:
        raise ValueError("the morphism does not start at the 2-morphism's "
                         "target module")
    vals = [h.f1.eval(v) for v in alpha.values]
    hf = CrossMorphism(alpha.x, h.tgt, h.f1.compose(alpha.f.f1),
                       h.f0.compose(alpha.f.f0), check=False)
    return _derived(hf, vals)


def interchange_holds(alpha: TwoMorphism, alpha2: TwoMorphism) -> bool:
    """For alpha: f => g on x -> y and alpha2: f' => g' on y -> z, both
    pasting orders of the square must agree:
        (g' alpha) (alpha' f)  ==  (alpha' g) (f' alpha)."""
    left = vcomp2(whisker_left2(alpha2.g, alpha),
                  whisker_right2(alpha2, alpha.f))
    right = vcomp2(whisker_right2(alpha2, alpha.g),
                   whisker_left2(alpha2.f, alpha))
    return left == right
