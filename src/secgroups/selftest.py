"""Acceptance checks shared by the command line (`secgroups selftest`) and
the test suite.

Each `crit_*` function returns a list of (label, outcome, expected) triples
where outcome and expected are "pass" or "fail".  A check is healthy when
outcome == expected; expected == "fail" marks a recorded divergence that the
suite tracks deliberately rather than hiding.

The normal-form oracle in `oracle_normal_form` is an independent rewriter:
it sorts letters by literal adjacent transpositions, collecting one
commutator token per swap, and never calls the production collection code.
"""

from __future__ import annotations

import random

from . import intlinalg as la
from .abelian import (AbMap, FinAbGroup, identity_map, tensor_square,
                      tensor_square_map)
from .crossed import (AbCoords, CrossedModule, CrossMorphism, GroupAction,
                      OmegaPairing, PointedGroupoid, ReducedQuadraticModule,
                      quadratic_module)
from .functors import ad1, ad2, adjunction_check, fiber, six_term
from .models import (homotopy_groups, k_invariant, suspension_comparison,
                     wedge_model)
from .nil2 import (Class2Group, Class2Hom, abelian_as_class2, boundary_map,
                   exact_sequence_report, free_nil, hom_from_words,
                   identity_hom, level_gamma, nilize)
from .tracks import (HopfTrack, nil_track, suspend_track, tracks_between,
                     vcomp, whisker_left, whisker_right, interchange_holds,
                     TwoMorphism)
from .words import PointedSet, Word

LETTERS = ["a", "b", "c", "d"]


def _points(k: int) -> PointedSet:
    return PointedSet(["*"] + LETTERS[:k])


def _result(label, ok, expected="pass"):
    return (label, "pass" if ok else "fail", expected)


# ---------------------------------------------------------------------------
# criterion 1: exactness of the four-term sequence
# ---------------------------------------------------------------------------

def crit_1():
    out = []
    for n in (2, 3):
        for k in range(1, 5):
            rep = exact_sequence_report(n, _points(k))
            out.append(_result("exact sequence n=%d k=%d" % (n, k),
                               rep["exact"]))
    return out


# ---------------------------------------------------------------------------
# criterion 2: normal-form oracle
# ---------------------------------------------------------------------------

def oracle_normal_form(word: Word, group: Class2Group):
    """Normal form by literal adjacent transpositions.

    Returns (exponent sums, commutator token counts keyed (i, j) with
    i < j), where a swap of adjacent letters x^e y^f with x later in the
    generator order emits the token [y, x]^(-e f).
    """
    order = {s: i for i, s in enumerate(group.gen_names)}
    letters = []
    for s, e in word.letters:
        step = 1 if e > 0 else -1
        letters.extend([(s, step)] * abs(e))
    tokens = {}
    changed = True
    while changed:
        changed = False
        for p in range(len(letters) - 1):
            (s1, e1), (s2, e2) = letters[p], letters[p + 1]
            if order[s1] > order[s2]:
                letters[p], letters[p + 1] = letters[p + 1], letters[p]
                key = (order[s2], order[s1])
                tokens[key] = tokens.get(key, 0) - e1 * e2
                changed = True
    sums = [0] * group.q.ngens
    for s, e in letters:
        sums[order[s]] += e
    return sums, tokens


def oracle_element(word: Word, group: Class2Group):
    """The element of the sorted word: over free_nil the sorted product
    e_1^s_1 ... e_k^s_k carries s_i s_j on the wedge generator of (i, j),
    i < j, and each commutator token adds its count there."""
    sums, tokens = oracle_normal_form(word, group)
    cvec = [0] * group.c.ngens
    for (i, j), p in group.wedge_index.items():
        cvec[p] += sums[i] * sums[j]
    for (i, j), e in tokens.items():
        cvec[group.wedge_index[(i, j)]] += e
    return group.element(sums, cvec)


def _random_word(rng, syms, max_len):
    return Word([(rng.choice(syms), rng.choice([-1, 1]))
                 for _ in range(rng.randint(0, max_len))])


def crit_2(rng):
    n_words = n_pairs = 2000
    groups = {k: free_nil(_points(k)) for k in (1, 2, 3)}
    bad = 0
    for _ in range(n_words):
        k = rng.randint(1, 3)
        g = groups[k]
        w = _random_word(rng, g.gen_names, 8)
        if not nilize(w, g) == oracle_element(w, g):
            bad += 1
    out = [_result("nilize vs transposition oracle on %d words" % n_words,
                   bad == 0)]
    bad = 0
    for _ in range(n_pairs):
        k = rng.randint(1, 3)
        g = groups[k]
        u = _random_word(rng, g.gen_names, 8)
        v = _random_word(rng, g.gen_names, 8)
        if not nilize(u * v, g) == nilize(u, g) * nilize(v, g):
            bad += 1
    out.append(_result("nilize is multiplicative on %d pairs" % n_pairs,
                       bad == 0))
    return out


# ---------------------------------------------------------------------------
# criterion 3: track laws
# ---------------------------------------------------------------------------

def _random_hom(rng, src, tgt, max_len=3):
    return hom_from_words(
        src, tgt,
        {s: _random_word(rng, tgt.gen_names, max_len) for s in src.gen_names})


def _random_track(rng, n, src, tgt, bdata):
    lts, bmap, _, _ = bdata
    phi = _random_hom(rng, src, tgt)
    k = src.q.ngens
    amat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(lts.ngens)]
    imgs = []
    for i in range(k):
        av = [amat[r][i] for r in range(lts.ngens)]
        imgs.append(phi.eval(src.generator(i))
                    * tgt.central(la.mat_vec(bmap.matrix, av)))
    psi = src.free_hom(tgt, imgs, check=False)
    alpha = AbMap(FinAbGroup(k), lts, amat, check=False)
    return HopfTrack(n, phi, psi, alpha, check=False)


def crit_3(rng):
    per_law = 1000
    A, B, C = free_nil(_points(2)), free_nil(_points(2)), free_nil(_points(2))
    out = []
    for n in (2, 3):
        bdata = boundary_map(n, B)
        budget = per_law if n == 2 else per_law // 2
        ok1 = ok2 = ok3 = ok4 = ok5 = True
        for _ in range(budget):
            h = _random_track(rng, n, A, B, bdata)
            # law: pasting adds the measures
            k2 = _random_track(rng, n, A, B, bdata)
            t2, _ = tracks_between(n, h.tgt, k2.tgt)
            if t2 is not None:
                v = vcomp(t2, h)
                if not v.alpha == h.alpha + t2.alpha:
                    ok1 = False
                v.validate()
            # law: right whisker pulls back along the abelianization
            kmap = _random_hom(rng, C, A)
            w = whisker_right(h, kmap)
            if w.alpha.matrix != la.mat_mul(h.alpha.matrix,
                                            kmap.q_map().matrix):
                ok2 = False
            w.validate()
            # law: left whisker pushes along the tensor square
            hmap = _random_hom(rng, B, C)
            w2 = whisker_left(hmap, h)
            w2.validate()
            tm = tensor_square_map(hmap.q_map(), tensor_square(B.q),
                                   tensor_square(C.q))
            if w2.alpha.matrix != la.mat_mul(tm.matrix, h.alpha.matrix):
                ok3 = False
            # suspension laws
            s = suspend_track(h)
            s.validate()
            if n == 2:
                if s.alpha.matrix != la.mat_mul(h.from_plain.matrix,
                                                h.alpha.matrix):
                    ok4 = False
            else:
                if s.alpha.matrix != h.alpha.matrix:
                    ok5 = False
        out.append(_result("pasting adds measures (n=%d)" % n, ok1))
        out.append(_result("right whisker law (n=%d)" % n, ok2))
        out.append(_result("left whisker law (n=%d)" % n, ok3))
        if n == 2:
            out.append(_result("suspension projects the measure (n=2)", ok4))
        else:
            out.append(_result("suspension keeps the measure (n=3)", ok5))
    # level-1 tracks suspend to the zero track
    ok = True
    A1, B1 = free_nil(_points(2)), free_nil(_points(2))
    for _ in range(per_law):
        phi = _random_hom(rng, A1, B1)
        s = nil_track(2, phi)
        if any(any(row) for row in s.alpha.matrix):
            ok = False
        s.validate()
    out.append(_result("level-1 tracks suspend to zero", ok))
    # torsor structure: kernel of the boundary matches the head of the
    # exact sequence
    for n in (2, 3):
        for k in (1, 2, 3):
            B2 = free_nil(_points(k))
            _, bmap, _, _ = boundary_map(n, B2)
            kg, _ = bmap.kernel()
            out.append(_result(
                "track torsor kernel n=%d k=%d" % (n, k),
                kg.is_isomorphic_to(level_gamma(n, B2.q)[0])))
    return out


# ---------------------------------------------------------------------------
# criterion 4: interchange of 2-morphisms
# ---------------------------------------------------------------------------

def _induced_wedge_morphism(rng, xw, yw):
    f0 = _random_hom(rng, xw.n, yw.n, max_len=2)
    tmap = tensor_square_map(f0.q_map(), tensor_square(xw.n.q),
                             tensor_square(yw.n.q))
    f1 = Class2Hom(
        xw.m, yw.m,
        [yw.m.element([tmap.matrix[r][j] for r in range(yw.m.q.ngens)],
                      [0] * yw.m.c.ngens)
         for j in range(xw.m.q.ngens)],
        AbMap(xw.m.c, yw.m.c, la.zeros(yw.m.c.ngens, xw.m.c.ngens),
              check=False), check=False)
    return CrossMorphism(xw, yw, f1, f0, check=False)


def _conjugation_module(points):
    g = free_nil(points)
    autos = []
    for i in range(g.q.ngens):
        n = g.generator(i)
        imgs = [g.generator(j).conjugate_by(n) for j in range(g.q.ngens)]
        autos.append(Class2Hom(g, g, imgs, identity_map(g.c), check=False))
    return CrossedModule(g, g, identity_hom(g),
                         GroupAction(g, g, autos, check=False))


def _rand_m_elem(rng, w):
    return w.m.element([rng.randint(-1, 1) for _ in range(w.m.q.ngens)],
                       [0] * w.m.c.ngens)


def _rand_group_elem(rng, g):
    e = g.identity()
    for i in range(g.q.ngens):
        e = e * (g.generator(i) ** rng.randint(-1, 1))
    return e


def crit_4(rng):
    squares = 500
    out = []
    # quadratic squares over level-2 wedge models
    x = wedge_model(2, _points(2))
    y = wedge_model(2, _points(1))
    z = wedge_model(2, _points(1))
    bad = 0
    n_quad = squares - squares // 4
    for _ in range(n_quad):
        f = _induced_wedge_morphism(rng, x, y)
        alpha = TwoMorphism(f, [_rand_m_elem(rng, y)
                                for _ in range(x.n.q.ngens)], check=False)
        fp = _induced_wedge_morphism(rng, y, z)
        alpha2 = TwoMorphism(fp, [_rand_m_elem(rng, z)
                                  for _ in range(y.n.q.ngens)], check=False)
        if not interchange_holds(alpha, alpha2):
            bad += 1
    out.append(_result("interchange on %d quadratic squares" % n_quad,
                       bad == 0))
    # crossed squares over conjugation modules
    cm = _conjugation_module(_points(2))
    ident = CrossMorphism(cm, cm, identity_hom(cm.m), identity_hom(cm.base),
                          check=False)
    bad = 0
    n_cross = squares // 4
    for _ in range(n_cross):
        a1 = TwoMorphism(ident, [_rand_group_elem(rng, cm.m)
                                 for _ in range(2)], check=False)
        a2 = TwoMorphism(a1.g, [_rand_group_elem(rng, cm.m)
                                for _ in range(2)], check=False)
        if not interchange_holds(a1, a2):
            bad += 1
    out.append(_result("interchange on %d crossed squares" % n_cross,
                       bad == 0))
    return out


# ---------------------------------------------------------------------------
# criterion 5: fibers and the six-term sequence
# ---------------------------------------------------------------------------

def quotient_wedge(n: int, points: PointedSet, extra_rels):
    """A level-n wedge model with extra central relations from the kernel
    of the boundary (the quadratic part), so all axioms survive."""
    w = wedge_model(n, points)
    lts = w.m.q
    rels = list(lts.relations) + [list(r) for r in extra_rels]
    names = list(w.m.gen_names)
    m = abelian_as_class2(FinAbGroup(lts.ngens, rels), names)
    bnd = Class2Hom(m, w.n,
                    [w.bnd.eval(w.m.generator(p)) for p in range(lts.ngens)],
                    AbMap(m.c, w.n.c, la.zeros(w.n.c.ngens, 0), check=False),
                    check=False)
    omega = OmegaPairing(AbCoords(w.n), m,
                         [m.generator(p) for p in range(lts.ngens)],
                         check=False)
    return quadratic_module(m, w.n, bnd, omega, n)


def _random_quotient_wedge(rng, n, points):
    w = wedge_model(n, points)
    _, bmap, _, _ = boundary_map(n, w.n)
    kb = la.kernel_basis(bmap.matrix, w.m.q.ngens)
    extra = []
    for row in kb:
        d = rng.choice([0, 0, 1, 2, 3])
        if d:
            extra.append(la.vec_scale(d, row))
    return quotient_wedge(n, points, extra)


def crit_5(rng):
    count = 100
    bad_axioms = 0
    bad_exact = 0
    for t in range(count):
        kx = rng.randint(1, 2)
        ky = rng.randint(1, 2)
        x = wedge_model(2, _points(kx))
        y = _random_quotient_wedge(rng, 2, _points(ky))
        f = _induced_wedge_morphism(rng, x, y)
        fib = fiber(f)
        if fib.obj.check_axioms():
            bad_axioms += 1
        rep = six_term(f)
        if not rep["exact"]:
            bad_exact += 1
    return [_result("fiber axioms on %d random morphisms" % count,
                    bad_axioms == 0),
            _result("six-term exactness on %d random morphisms" % count,
                    bad_exact == 0)]


# ---------------------------------------------------------------------------
# criterion 6: homotopy groups of wedges
# ---------------------------------------------------------------------------

def crit_6():
    out = []
    for n in (2, 3):
        for k in range(1, 5):
            w = wedge_model(n, _points(k))
            h0, h1 = homotopy_groups(w)
            if n == 2:
                want_h1 = FinAbGroup(k * (k + 1) // 2)
            else:
                want_h1 = FinAbGroup(k, [[2 if i == j else 0
                                          for j in range(k)]
                                         for i in range(k)])
            out.append(_result("wedge h1 n=%d k=%d" % (n, k),
                               h1.is_isomorphic_to(want_h1)))
            free_ab = FinAbGroup(k)
            out.append(_result("wedge h0 is the free abelian group "
                               "n=%d k=%d" % (n, k),
                               h0.underlying_ab().is_isomorphic_to(free_ab)
                               if h0.is_abelian() else False))
            # the stated value: h0 matches the free class-2 group on the
            # letters; diverges for k >= 2 (recorded divergence)
            stated = h0.is_isomorphic_abstract(free_nil(_points(k)))
            out.append(_result("wedge h0 matches free class-2 group "
                               "n=%d k=%d" % (n, k), stated,
                               "pass" if k == 1 else "fail"))
    return out


# ---------------------------------------------------------------------------
# criterion 7: suspension comparisons
# ---------------------------------------------------------------------------

def ad2_free_instance():
    """ad2 of the trivial module over one free letter against the level-2
    wedge model on the same letter; returns the comparison morphism."""
    x = wedge_model(1, _points(1))
    rqm, _ = ad2(x)
    w = wedge_model(2, _points(1))
    f0 = Class2Hom(rqm.n, w.n, [w.n.generator(i)
                                for i in range(rqm.n.q.ngens)],
                   AbMap(rqm.n.c, w.n.c,
                         la.identity(w.n.c.ngens), check=False))
    f1 = Class2Hom(rqm.m, w.m, [w.m.generator(i)
                                for i in range(rqm.m.q.ngens)],
                   AbMap(rqm.m.c, w.m.c,
                         la.zeros(w.m.c.ngens, rqm.m.c.ngens), check=False))
    return CrossMorphism(rqm, w, f1, f0)


def crit_7():
    out = []
    for k in (1, 2, 3):
        _, is_we = suspension_comparison(_points(k))
        out.append(_result("stabilization of the level-2 wedge k=%d" % k,
                           is_we))
    try:
        cmp2 = ad2_free_instance()
        out.append(_result("level-1 to level-2 adjoint on one letter",
                           cmp2.is_weak_equivalence()))
    except Exception as e:
        out.append(_result("level-1 to level-2 adjoint on one letter: %s"
                           % e, False))
    return out


# ---------------------------------------------------------------------------
# criterion 8: k-invariants
# ---------------------------------------------------------------------------

def omega_zero_module():
    """A level-2 module with zero pairing over one abelian letter."""
    ngrp = free_nil(_points(1))
    m = abelian_as_class2(FinAbGroup(1), ["m0"])
    bnd = Class2Hom(m, ngrp, [ngrp.identity()],
                    AbMap(m.c, ngrp.c, la.zeros(ngrp.c.ngens, 0),
                          check=False), check=False)
    omega = OmegaPairing(AbCoords(ngrp), m, [m.identity()])
    return ReducedQuadraticModule(m, ngrp, bnd, omega)


def crit_8():
    out = []
    for n in range(2, 6):
        ki = k_invariant(wedge_model(n, _points(1)))
        out.append(_result("k-invariant of the level-%d wedge is an "
                           "isomorphism" % n, ki.is_isomorphism()))
    ki = k_invariant(omega_zero_module())
    out.append(_result("k-invariant of a zero-pairing module is zero",
                       ki.is_zero()))
    return out


# ---------------------------------------------------------------------------
# criterion 9: closed forms for groupoids
# ---------------------------------------------------------------------------

def _one_object_groupoid(elements, mul, inverse):
    morphisms = {name: ("*", "*") for name in elements}
    table = {(g, f): mul(g, f) for g in elements for f in elements}
    return PointedGroupoid(["*"], morphisms, table)


def cyclic_groupoid(n: int) -> PointedGroupoid:
    els = ["r%d" % i for i in range(n)]
    return _one_object_groupoid(
        els,
        lambda g, f: "r%d" % ((int(g[1:]) + int(f[1:])) % n),
        lambda g: "r%d" % ((-int(g[1:])) % n))


def klein_groupoid() -> PointedGroupoid:
    els = ["e", "u", "v", "w"]
    idx = {e: i for i, e in enumerate(els)}

    def mul(g, f):
        return els[idx[g] ^ idx[f]]
    return _one_object_groupoid(els, mul, lambda g: g)


def discrete_groupoid(extra_objects) -> PointedGroupoid:
    objs = ["*"] + list(extra_objects)
    morphisms = {"id_%s" % o: (o, o) for o in objs}
    table = {("id_%s" % o, "id_%s" % o): "id_%s" % o for o in objs}
    return PointedGroupoid(objs, morphisms, table)


def two_object_connected_groupoid() -> PointedGroupoid:
    morphisms = {"i": ("*", "*"), "j": ("o", "o"),
                 "f": ("*", "o"), "g": ("o", "*")}
    table = {("i", "i"): "i", ("j", "j"): "j",
             ("f", "i"): "f", ("j", "f"): "f",
             ("g", "j"): "g", ("i", "g"): "g",
             ("g", "f"): "i", ("f", "g"): "j"}
    return PointedGroupoid(["*", "o"], morphisms, table)


def crit_9():
    out = []
    d = ad1(discrete_groupoid(["c", "d"]))
    h0 = d.h0_certificate()
    h1 = d.h1_certificate()
    out.append(_result("discrete groupoid h0 is free on the classes",
                       sorted(h0.points.nonbase()) == ["c", "d"]))
    out.append(_result("discrete groupoid h1 vanishes", h1.is_trivial()))
    for n in (2, 3, 4):
        g = ad1(cyclic_groupoid(n))
        h1 = g.h1_certificate()
        out.append(_result(
            "one-object groupoid h1 is cyclic of order %d" % n,
            h1.is_isomorphic_to(FinAbGroup(1, [[n]]))))
        out.append(_result(
            "one-object groupoid h0 is trivial (order %d)" % n,
            not g.h0_certificate().points.nonbase()))
    g = ad1(klein_groupoid())
    h1 = g.h1_certificate()
    out.append(_result(
        "one-object groupoid h1 is the four-group",
        h1.is_isomorphic_to(FinAbGroup(2, [[2, 0], [0, 2]]))))
    g = ad1(two_object_connected_groupoid())
    h1 = g.h1_certificate()
    out.append(_result("connected two-object groupoid h1 vanishes",
                       h1.is_trivial()))
    out.append(_result("connected two-object groupoid h0 is trivial",
                       not g.h0_certificate().points.nonbase()))
    return out


# ---------------------------------------------------------------------------
# criterion 10: adjunction corpus
# ---------------------------------------------------------------------------

def _finite_rqm(m_order, n_order, omega_scale, level=2):
    m = abelian_as_class2(FinAbGroup(1, [[m_order]]), ["m0"])
    ngrp = abelian_as_class2(FinAbGroup(1, [[n_order]]), ["n0"])
    bnd = Class2Hom(m, ngrp, [ngrp.identity()],
                    AbMap(m.c, ngrp.c, la.zeros(0, 0), check=False),
                    check=False)
    images = [m.element([omega_scale], [])]
    omega = OmegaPairing(AbCoords(ngrp), m, images, check=False)
    return quadratic_module(m, ngrp, bnd, omega, level)


def adjunction_corpus_2():
    """(x, y) instances for the level-1/level-2 adjunction."""
    xs = [wedge_model(1, _points(1)), wedge_model(1, _points(2))]
    ys = [_finite_rqm(2, 2, 0), _finite_rqm(2, 2, 1), _finite_rqm(4, 2, 2)]
    return [(x, y) for x in xs for y in ys][:10]


def adjunction_corpus_3():
    """(x, y) instances for the level-2/level-3 adjunction."""
    xs = [wedge_model(2, _points(1)), _finite_rqm(2, 2, 1),
          _finite_rqm(2, 2, 0)]
    ys = [_finite_rqm(2, 2, 1, level=3), _finite_rqm(2, 2, 0, level=3)]
    return [(x, y) for x in xs for y in ys][:10]


def crit_10():
    out = []
    for i, (x, y) in enumerate(adjunction_corpus_2()):
        rep = adjunction_check(2, x, y)
        out.append(_result(
            "level-2 adjunction instance %d (%d maps)" % (i, rep["hom_adj"]),
            rep["counts_equal"] and rep["bijection"]))
    for i, (x, y) in enumerate(adjunction_corpus_3()):
        rep = adjunction_check(3, x, y)
        out.append(_result(
            "level-3 adjunction instance %d (%d maps)" % (i, rep["hom_adj"]),
            rep["counts_equal"] and rep["bijection"]))
    return out


# ---------------------------------------------------------------------------
# criterion 11: serialization corpus
# ---------------------------------------------------------------------------

def corpus_documents():
    """(name, text) pairs for every corpus file shipped with the package."""
    import importlib.resources as res
    root = res.files("secgroups") / "corpus"
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".sg"):
            out.append((entry.name, entry.read_text()))
    return out


def crit_11():
    from .serialization import parse, print_document
    out = []
    docs = corpus_documents()
    ok = bool(docs)
    for name, text in docs:
        canon = print_document(parse(text))
        if canon != text or print_document(parse(canon)) != canon:
            ok = False
            out.append(_result("corpus %s round-trips" % name, False))
    out.append(_result("all %d corpus documents round-trip byte-identically"
                       % len(docs), ok))
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

CRITERIA = [
    ("1 exact sequence", crit_1, False),
    ("2 normal-form oracle", crit_2, True),
    ("3 track laws", crit_3, True),
    ("4 interchange", crit_4, True),
    ("5 fibers", crit_5, True),
    ("6 wedge homotopy groups", crit_6, False),
    ("7 suspension", crit_7, False),
    ("8 k-invariants", crit_8, False),
    ("9 groupoid closed forms", crit_9, False),
    ("10 adjunctions", crit_10, False),
    ("11 serialization", crit_11, False),
]


def run_all(seed: int = 0):
    """Run every criterion; yields (criterion name, healthy, detail lines).

    A criterion is healthy when every sub-check's outcome matches its
    expectation (including recorded divergences expected to fail).
    """
    for name, fn, seeded in CRITERIA:
        try:
            subs = fn(random.Random(seed)) if seeded else fn()
        except Exception as e:  # surface, never hide
            yield name, False, ["exception: %r" % e]
            continue
        healthy = all(outcome == expected for _, outcome, expected in subs)
        lines = []
        for label, outcome, expected in subs:
            mark = outcome
            if expected == "fail":
                mark = "xfail" if outcome == "fail" else "unexpected-pass"
            lines.append("%-8s %s" % (mark, label))
        yield name, healthy, lines
