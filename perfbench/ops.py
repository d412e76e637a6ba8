"""The ops of the secgroups benchmark and the checks of their answers.

An op turns one generated input (plain data, see `inputs.py`) into library
objects and answers one user-level query, as one `secgroups` command would.
It returns a small answer made of plain data, which the checks below judge
after the timed region and which traced and untraced runs must agree on.

Library functions are looked up on the `secgroups` package at call time,
so that tracing, which rebinds them, sees every call.
"""

from __future__ import annotations

from math import gcd

import secgroups as sg
from secgroups import intlinalg as la
from secgroups import abelian, nil2

from inputs import LETTERS

# documented refusals: an exact question the library declines to decide
REFUSALS = (sg.EnumerationCapExceeded, sg.H0Undecidable)

EXACT_KEYS = ("h1_head_injective", "exact_at_h1x", "exact_at_h1y",
              "exact_at_h0fib", "exact_at_h0x", "exact")


def points(k):
    return sg.PointedSet(["*"] + list(LETTERS[:k]))


def hom(src, tgt, images):
    return sg.hom_from_words(
        src, tgt, {s: sg.Word(list(w)) for s, w in zip(src.gen_names, images)})


def ab_summary(a):
    return (a.free_rank, a.invariant_factors)


# ---------------------------------------------------------------------------
# wedge-homotopy
# ---------------------------------------------------------------------------

def op_wedge(cell):
    """`secgroups wedge` without printing: model, axioms, h0 and h1."""
    n, k = cell
    w = sg.wedge_model(n, points(k))
    violations = sg.check_axioms(w)
    h0, h1 = sg.homotopy_groups(w)
    h0_ab = ab_summary(h0.underlying_ab()) if h0.is_abelian() else None
    return (tuple(violations), h0_ab, ab_summary(h1))


def check_wedge(cell, answer):
    n, k = cell
    want_h1 = (k * (k + 1) // 2, ()) if n == 2 else (0, (2,) * k)
    return answer == ((), (k, ()), want_h1)


# ---------------------------------------------------------------------------
# module-invariants
# ---------------------------------------------------------------------------

def quotient_wedge(pts, mult):
    """The level-2 wedge with the kernel rows of its boundary scaled by
    `mult` added as relations, so every axiom survives."""
    w = sg.wedge_model(2, pts)
    _, bmap, _, _ = nil2.boundary_map(2, w.n)
    rows = la.kernel_basis(bmap.matrix, w.m.q.ngens)
    if len(rows) > len(mult):
        raise ValueError("more kernel rows than generated multipliers")
    lts = w.m.q
    extra = [la.vec_scale(d, row) for d, row in zip(mult, rows) if d]
    m = sg.abelian_as_class2(
        sg.FinAbGroup(lts.ngens, list(lts.relations) + extra),
        list(w.m.gen_names))
    bnd = sg.Class2Hom(
        m, w.n, [w.bnd.eval(w.m.generator(p)) for p in range(lts.ngens)],
        sg.AbMap(m.c, w.n.c, la.zeros(w.n.c.ngens, 0), check=False),
        check=False)
    omega = sg.OmegaPairing(sg.AbCoords(w.n), m,
                            [m.generator(p) for p in range(lts.ngens)],
                            check=False)
    return sg.ReducedQuadraticModule(m, w.n, bnd, omega)


def induced_morphism(x, y, f0_words):
    """The morphism of level-2 modules induced by a base map on the tensor
    squares."""
    f0 = hom(x.n, y.n, f0_words)
    tmap = sg.tensor_square_map(f0.q_map(), sg.tensor_square(x.n.q),
                                sg.tensor_square(y.n.q))
    f1 = sg.Class2Hom(
        x.m, y.m,
        [y.m.element([tmap.matrix[r][j] for r in range(y.m.q.ngens)],
                     [0] * y.m.c.ngens) for j in range(x.m.q.ngens)],
        sg.AbMap(x.m.c, y.m.c, la.zeros(y.m.c.ngens, x.m.c.ngens),
                 check=False), check=False)
    return sg.CrossMorphism(x, y, f1, f0, check=False)


def op_fiber(data):
    """`secgroups fiber` and `secgroups six-term` on one random morphism."""
    kx, ky, mult, f0_words = data
    f = induced_morphism(sg.wedge_model(2, points(kx)),
                         quotient_wedge(points(ky), mult), f0_words)
    violations = sg.check_axioms(sg.fiber(f).obj)
    report = sg.six_term(f)
    return (tuple(violations), tuple(report[key] for key in EXACT_KEYS))


def check_fiber(data, answer):
    violations, exact = answer
    return violations == () and exact[-1] is True


def op_kinv(cell):
    """`secgroups k-invariant` on a wedge model."""
    n, k = cell
    ki = sg.k_invariant(sg.wedge_model(n, points(k)))
    return (ki.is_isomorphism(), ki.is_zero(),
            tuple(sorted(ki.certificate.items())))


def check_kinv(cell, answer):
    is_iso, _, cert = answer
    return is_iso is True and all(v is True for _, v in cert)


def op_susp(k):
    """`secgroups suspend-compare` on k letters."""
    _, is_we = sg.suspension_comparison(points(k))
    return is_we


def check_susp(k, answer):
    return answer is True


# ---------------------------------------------------------------------------
# track-laws
# ---------------------------------------------------------------------------

def make_track(n, src, tgt, bdata, phi_words, amat):
    """The track phi => psi whose measure is amat, psi forced by it."""
    lts, bmap, _, _ = bdata
    k = src.q.ngens
    if len(amat) != lts.ngens:
        raise ValueError("measure has %d rows, want %d"
                         % (len(amat), lts.ngens))
    phi = hom(src, tgt, phi_words)
    imgs = [phi.eval(src.generator(i))
            * tgt.central(la.mat_vec(bmap.matrix, [row[i] for row in amat]))
            for i in range(k)]
    cols = [imgs[a].commutator(imgs[b]).cvec
            for (a, b), _ in sorted(src.wedge_index.items(),
                                    key=lambda t: t[1])]
    psi = sg.Class2Hom(src, tgt, imgs,
                       sg.AbMap(src.c, tgt.c, la.transpose(cols, tgt.c.ngens),
                                check=False), check=False)
    alpha = sg.AbMap(sg.FinAbGroup(k), lts, [list(row) for row in amat],
                     check=False)
    return sg.HopfTrack(n, phi, psi, alpha, check=False)


def op_track(data):
    """Pasting, both whisker laws and suspension on one random track."""
    n, k, first, second, c_to_a, b_to_c = data
    a, b, c = (sg.free_nil(points(k)) for _ in range(3))
    bdata = nil2.boundary_map(n, b)
    h = make_track(n, a, b, bdata, *first)
    h2 = make_track(n, a, b, bdata, *second)
    t, _ = sg.tracks_between(n, h.tgt, h2.tgt)
    pasting = None
    if t is not None:
        v = sg.vcomp(t, h)
        pasting = v.alpha == h.alpha + t.alpha
        v.validate()
    kmap = hom(c, a, c_to_a)
    w = sg.whisker_right(h, kmap)
    right = w.alpha.matrix == la.mat_mul(h.alpha.matrix,
                                         kmap.q_map().matrix)
    w.validate()
    hmap = hom(b, c, b_to_c)
    w2 = sg.whisker_left(hmap, h)
    w2.validate()
    tm = sg.tensor_square_map(hmap.q_map(), sg.tensor_square(b.q),
                              sg.tensor_square(c.q))
    left = w2.alpha.matrix == la.mat_mul(tm.matrix, h.alpha.matrix)
    s = sg.suspend_track(h)
    s.validate()
    want = (la.mat_mul(h.from_plain.matrix, h.alpha.matrix) if n == 2
            else h.alpha.matrix)
    return (pasting, right, left, s.alpha.matrix == want)


def check_track(data, answer):
    pasting, right, left, susp = answer
    return pasting in (None, True) and right and left and susp


def op_quad_square(data):
    """Interchange on a square of 2-morphisms between level-2 wedges."""
    f_words, a_vals, fp_words, a2_vals = data
    x = sg.wedge_model(2, points(2))
    y = sg.wedge_model(2, points(1))
    z = sg.wedge_model(2, points(1))
    f = induced_morphism(x, y, f_words)
    alpha = sg.TwoMorphism(f, [y.m.element([v], [0] * y.m.c.ngens)
                               for v in a_vals], check=False)
    fp = induced_morphism(y, z, fp_words)
    alpha2 = sg.TwoMorphism(fp, [z.m.element([v], [0] * z.m.c.ngens)
                                 for v in a2_vals], check=False)
    return sg.interchange_holds(alpha, alpha2)


def conjugation_module(pts):
    g = sg.free_nil(pts)
    autos = [sg.Class2Hom(g, g, [g.generator(j).conjugate_by(g.generator(i))
                                 for j in range(g.q.ngens)],
                          abelian.identity_map(g.c), check=False)
             for i in range(g.q.ngens)]
    return sg.CrossedModule(g, g, sg.identity_hom(g),
                            sg.GroupAction(g, g, autos, check=False))


def group_elem(g, exponents):
    e = g.identity()
    for i, a in enumerate(exponents):
        e = e * (g.generator(i) ** a)
    return e


def op_crossed_square(data):
    """Interchange on a square of 2-morphisms of a crossed module."""
    values1, values2 = data
    cm = conjugation_module(points(2))
    ident = sg.CrossMorphism(cm, cm, sg.identity_hom(cm.m),
                             sg.identity_hom(cm.base), check=False)
    a1 = sg.TwoMorphism(ident, [group_elem(cm.m, e) for e in values1],
                        check=False)
    a2 = sg.TwoMorphism(a1.g, [group_elem(cm.m, e) for e in values2],
                        check=False)
    return sg.interchange_holds(a1, a2)


def check_square(data, answer):
    return answer is True


# ---------------------------------------------------------------------------
# coset-orders
# ---------------------------------------------------------------------------

def op_coset(data):
    """The order of <a, b | a^p, b^q, w> by bounded coset enumeration."""
    p, q, w = data
    g = sg.FinitelyPresentedGroup(
        ["a", "b"], [sg.Word([("a", p)]), sg.Word([("b", q)]),
                     sg.Word(list(w))])
    return g.order(cap=sg.DEFAULT_CAP)


def abelianization_order(p, q, w):
    """|G^ab| for <a, b | a^p, b^q, w>: the gcd of the 2x2 minors of the
    exponent-sum matrix, which always has rank 2 here."""
    sa = sum(e for s, e in w if s == "a")
    sb = sum(e for s, e in w if s == "b")
    return gcd(p * q, p * sb, q * sa)


def cyclic_normal_form(w):
    """The least of the cyclic rotations of w and of its inverse, after
    free and cyclic reduction."""
    out = []
    for s, e in w:
        if out and out[-1] == (s, -e):
            out.pop()
        else:
            out.append((s, e))
    while len(out) > 1 and out[0] == (out[-1][0], -out[-1][1]):
        out = out[1:-1]
    inv = [(s, -e) for s, e in reversed(out)]
    return min(tuple(v[i:] + v[:i]) for v in (out, inv)
               for i in range(max(len(v), 1)))


def presentation_key(p, q, w):
    """One representative of the presentations <a, b | a^p, b^q, w> that
    differ by inverting a or b, swapping a with b (and p with q), and
    rotating or inverting w.  All of them present isomorphic groups."""
    keys = []
    for sign_a in (1, -1):
        for sign_b in (1, -1):
            v = [(s, e * (sign_a if s == "a" else sign_b)) for s, e in w]
            keys.append((p, q, cyclic_normal_form(v)))
            swapped = [("b" if s == "a" else "a", e) for s, e in v]
            keys.append((q, p, cyclic_normal_form(swapped)))
    return min(keys)


# sympy defines a few thousand cosets at most on the groups answered here
# (3,667 over 500 classes); ten times the library's cap bounds the check of
# a wrong finite answer for an infinite group.
SYMPY_MAX_COSETS = 100_000


def sympy_order(p, q, w):
    """The same order from sympy's coset_enumeration_r."""
    from sympy.combinatorics.coset_table import coset_enumeration_r
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    class Presentation(FpGroup):
        """FpGroup without the rewriting system its constructor builds
        eagerly: coset enumeration never uses it, and building it costs
        ten times the enumeration on these presentations."""

        def __init__(self, fr_grp, relators):
            self.free_group = fr_grp
            self.relators = list(relators)
            self.generators = fr_grp.generators

    f, a, b = free_group("a b")
    rel = f.identity
    for s, e in w:
        rel = rel * ({"a": a, "b": b}[s] ** e)
    relators = [a ** p, b ** q] + ([rel] if rel != f.identity else [])
    table = coset_enumeration_r(Presentation(f, relators), [],
                                max_cosets=SYMPY_MAX_COSETS)
    table.compress()
    return len(table.table)


class CosetChecker:
    """Checks answered orders against sympy, once per isomorphism class of
    presentation that `presentation_key` recognises."""

    def __init__(self):
        self.orders = {}

    def __call__(self, data, answer):
        p, q, w = data
        key = presentation_key(p, q, w)
        if key not in self.orders:
            self.orders[key] = sympy_order(*key)
        return (answer == self.orders[key]
                and answer % abelianization_order(p, q, w) == 0)


OPS = {
    "wedge": op_wedge,
    "fiber": op_fiber,
    "kinv": op_kinv,
    "susp": op_susp,
    "track": op_track,
    "quad_square": op_quad_square,
    "crossed_square": op_crossed_square,
    "coset": op_coset,
}


def run_op(kind, data):
    """(status, answer): "ok" with the answer, "refused" with the refusal's
    type name, or "error" with the exception's repr."""
    try:
        return "ok", OPS[kind](data)
    except REFUSALS as exc:
        return "refused", type(exc).__name__
    except Exception as exc:  # counted as a failed op, never hidden
        return "error", repr(exc)


class Checker:
    """Judges (kind, data, status, answer) records after the timed region."""

    def __init__(self):
        self.by_kind = {
            "wedge": check_wedge,
            "fiber": check_fiber,
            "kinv": check_kinv,
            "susp": check_susp,
            "track": check_track,
            "quad_square": check_square,
            "crossed_square": check_square,
            "coset": CosetChecker(),
        }

    def failed(self, kind, data, status, answer) -> bool:
        """An op fails when it raised an unexpected exception or its answer
        fails its check; a documented refusal is not a failure."""
        if status == "refused":
            return False
        if status == "error":
            return True
        try:
            return not self.by_kind[kind](data, answer)
        except Exception:  # a check that cannot run fails the op
            return True
