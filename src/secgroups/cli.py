"""Command-line interface.

Exit status contract: 0 = success, 1 = verified negative (an axiom
violation, a failed comparison, a failed law), 2 = error (parse errors,
dangling references, blocks that build no valid object, a block of the
wrong kind for the command, undecidable or capped computations),
3 = internal error (any other exception; one line on stderr naming it, no
traceback).
"""

from __future__ import annotations

import argparse
import os
import sys

from .coset import DEFAULT_CAP, EnumerationCapExceeded
from .crossed import CrossMorphism, H0Undecidable, WordHom, check_axioms
from .functors import ad2, ad3, adjunction_check, fiber, phi1, phi2, phi3, \
    six_term
from .models import homotopy_groups, k_invariant, suspension_comparison, \
    wedge_model
from .nil2 import Class2Group, Class2Hom
from .serialization import (CROSSED, MORPHISM, Document, Need, ParseError,
                            TrackBlock, ValidationError, describe_ab, parse,
                            print_document)
from .tracks import HopfTrack, TwoMorphism, vcomp
from .words import PointedSet

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _coset_cap(args) -> int:
    """`--coset-cap`, else `SECGROUPS_COSET_CAP`, else the default; a value
    that is not a positive integer is an error naming where it came from."""
    if args.coset_cap is not None:
        source, text = "--coset-cap", str(args.coset_cap)
    else:
        text = os.environ.get("SECGROUPS_COSET_CAP")
        if not text:
            return DEFAULT_CAP
        source = "SECGROUPS_COSET_CAP"
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("%s must be a positive integer, got %r"
                         % (source, text))
    return cap


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


LEVEL_1 = Need("a level-1 crossed module", CROSSED.types, range(1, 2))
LEVEL_2_UP = Need("a crossed module of level 2 or more", CROSSED.types,
                  range(2, sys.maxsize))
LEVEL_3_UP = Need("a crossed module of level 3 or more", CROSSED.types,
                  range(3, sys.maxsize))
TRACK = Need("a track", (HopfTrack,))
CHECKABLE = Need("a crossed module, a hom of class-2 groups, a hom into "
                 "a free group, a morphism, a track or a 2-morphism",
                 CROSSED.types + (Class2Hom, WordHom, CrossMorphism,
                                  HopfTrack, TwoMorphism))


def _describe_group(g) -> str:
    if isinstance(g, Class2Group):
        if g.is_abelian():
            return describe_ab(g.underlying_ab())
        return ("class-2 group, abelianization %s, central layer %s"
                % (describe_ab(g.abelianization()), describe_ab(g.c)))
    return str(g)


def cmd_check(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "check", CHECKABLE)
    if not CROSSED.admits(obj):
        obj.validate()
        print("check %s: ok" % args.name)
        return EXIT_OK
    violations = check_axioms(obj)
    if violations:
        for v in violations:
            print("violation: %s" % v)
        return EXIT_NEGATIVE
    print("check %s: ok" % args.name)
    return EXIT_OK


def cmd_h0(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "h0", CROSSED)
    h0 = obj.h0()
    if isinstance(h0, Class2Group):
        print("h0 %s = %s" % (args.name, _describe_group(h0)))
        return EXIT_OK
    # a free base delivers a presentation; try to decide its order
    order = obj.h0_order(cap=_coset_cap(args))
    print("h0 %s: presented group of order %d" % (args.name, order))
    return EXIT_OK


def cmd_h1(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "h1", CROSSED)
    print("h1 %s = %s" % (args.name, describe_ab(obj.h1())))
    return EXIT_OK


def cmd_homotopy_groups(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "homotopy-groups", CROSSED)
    h0, h1 = homotopy_groups(obj)
    print("h0 = %s" % _describe_group(h0))
    print("h1 = %s" % describe_ab(h1))
    return EXIT_OK


def cmd_fiber(args) -> int:
    doc = _load(args.file)
    f = doc.get(args.name, "fiber", MORPHISM)
    fib = fiber(f)
    violations = fib.obj.check_axioms()
    print("fiber of %s: M rank %d, N rank %d" % (
        args.name, fib.obj.m.q.ngens, fib.obj.n.q.ngens))
    if violations:
        for v in violations:
            print("violation: %s" % v)
        return EXIT_NEGATIVE
    print("axioms: ok")
    return EXIT_OK


def cmd_six_term(args) -> int:
    doc = _load(args.file)
    f = doc.get(args.name, "six-term", MORPHISM)
    rep = six_term(f)
    for key in ("h1_head_injective", "exact_at_h1x", "exact_at_h1y",
                "exact_at_h0fib", "exact_at_h0x"):
        print("%-18s %s" % (key, "ok" if rep[key] else "FAIL"))
    return EXIT_OK if rep["exact"] and rep["h1_head_injective"] \
        else EXIT_NEGATIVE


def _phi_need(level: int) -> Need:
    """What phi at a level takes: a stable module at level 3."""
    return {1: LEVEL_1, 3: LEVEL_3_UP}.get(level, LEVEL_2_UP)


def cmd_phi(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "phi %d" % args.level, _phi_need(args.level))
    if args.level == 3:
        out = phi3(obj)
    elif args.level == 2:
        out = phi2(obj)
    elif args.level == 1:
        out = phi1(obj)
    else:
        raise ValueError("phi level must be 1, 2 or 3")
    violations = check_axioms(out)
    print("phi%d %s: level-%d object, axioms %s" % (
        args.level, args.name, out.level,
        "ok" if not violations else "FAIL"))
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_ad(args) -> int:
    doc = _load(args.file)
    need = LEVEL_1 if args.level == 2 else LEVEL_2_UP
    obj = doc.get(args.name, "ad %d" % args.level, need)
    if args.level == 3:
        out, _ = ad3(obj)
    elif args.level == 2:
        out, _ = ad2(obj)
    else:
        raise ValueError("ad level must be 2 or 3 for documents")
    violations = check_axioms(out)
    print("ad%d %s: level-%d object, M rank %d, axioms %s" % (
        args.level, args.name, out.level, out.m.q.ngens,
        "ok" if not violations else "FAIL"))
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_adjoint_check(args) -> int:
    doc = _load(args.file)
    command = "adjoint-check %d" % args.level
    x = doc.get(args.x, command, LEVEL_1 if args.level == 2 else LEVEL_2_UP)
    y = doc.get(args.y, command, _phi_need(args.level))
    rep = adjunction_check(args.level, x, y)
    print("hom(ad%d x, y) = %d, hom(x, phi%d y) = %d, bijection: %s" % (
        args.level, rep["hom_adj"], args.level, rep["hom_phi"],
        rep["bijection"]))
    return EXIT_OK if rep["counts_equal"] and rep["bijection"] \
        else EXIT_NEGATIVE


def cmd_wedge(args) -> int:
    points = PointedSet(["*"] + args.letters)
    w = wedge_model(args.level, points)
    violations = check_axioms(w)
    h0, h1 = homotopy_groups(w)
    print("wedge level %d on %s" % (args.level, " ".join(args.letters)))
    print("h0 = %s" % _describe_group(h0))
    print("h1 = %s" % describe_ab(h1))
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_k_invariant(args) -> int:
    doc = _load(args.file)
    obj = doc.get(args.name, "k-invariant", CROSSED)
    ki = k_invariant(obj)
    print("k-invariant: isomorphism=%s zero=%s certificate=%s" % (
        ki.is_isomorphism(), ki.is_zero(), ki.certificate))
    return EXIT_OK


def cmd_suspend_compare(args) -> int:
    points = PointedSet(["*"] + args.letters)
    _, is_we = suspension_comparison(points)
    print("stabilization comparison on %s: %s" % (
        " ".join(args.letters),
        "weak equivalence" if is_we else "NOT a weak equivalence"))
    return EXIT_OK if is_we else EXIT_NEGATIVE


def cmd_paste(args) -> int:
    doc = _load(args.file)
    first = doc.get(args.first, "paste", TRACK)
    second = doc.get(args.second, "paste", TRACK)
    out = vcomp(second, first)
    b1 = doc.blocks[args.first]
    block = TrackBlock("%s_%s" % (args.second, args.first), out.n,
                       b1.f, doc.blocks[args.second].g,
                       [row[:] for row in out.alpha.matrix])
    print(block)
    return EXIT_OK


def cmd_canon(args) -> int:
    doc = _load(args.file)
    sys.stdout.write(print_document(doc))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all
    failed = False
    for name, healthy, lines in run_all(seed=args.seed):
        print("criterion %-28s %s" % (name, "pass" if healthy else "FAIL"))
        if args.verbose or not healthy:
            for line in lines:
                print("    " + line)
        failed = failed or not healthy
    return EXIT_NEGATIVE if failed else EXIT_OK


def _common_options(seed, coset_cap) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=seed,
                        help="seed for randomized property checks")
    common.add_argument("--coset-cap", type=int, default=coset_cap,
                        help="enumeration cap for presented-group orders "
                             "(default from SECGROUPS_COSET_CAP)")
    return common


def _build_parser() -> argparse.ArgumentParser:
    # the command's copies have no defaults, so that they do not overwrite
    # an option given before the command
    common = _common_options(argparse.SUPPRESS, argparse.SUPPRESS)
    p = argparse.ArgumentParser(
        prog="secgroups",
        parents=[_common_options(0, None)],
        description="Algebra of level-n group models: normal forms, "
                    "homotopy groups, tracks, fibers and adjunctions.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *specs, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        for spec in specs:
            for flags, skw in spec:
                sp.add_argument(*flags, **skw)
        sp.set_defaults(fn=fn)
        return sp

    add("check", cmd_check, ((["file"], {}), ), ((["name"], {}),),
        help="validate a named object from a document")
    add("h0", cmd_h0, ((["file"], {}),), ((["name"], {}),),
        help="the zeroth homotopy group of an object")
    add("h1", cmd_h1, ((["file"], {}),), ((["name"], {}),),
        help="the first homotopy group of an object")
    add("homotopy-groups", cmd_homotopy_groups,
        ((["file"], {}),), ((["name"], {}),),
        help="both homotopy groups of an object")
    add("fiber", cmd_fiber, ((["file"], {}),), ((["name"], {}),),
        help="the fiber of a morphism, with axiom check")
    add("six-term", cmd_six_term, ((["file"], {}),), ((["name"], {}),),
        help="the connecting six-term sequence of a morphism")
    add("phi", cmd_phi,
        ((["level"], {"type": int}),), ((["file"], {}),), ((["name"], {}),),
        help="apply the forgetful functor at a level")
    add("ad", cmd_ad,
        ((["level"], {"type": int}),), ((["file"], {}),), ((["name"], {}),),
        help="apply the left adjoint at a level")
    add("adjoint-check", cmd_adjoint_check,
        ((["level"], {"type": int}),), ((["file"], {}),),
        ((["x"], {}),), ((["y"], {}),),
        help="verify the adjunction bijection on two document objects")
    add("wedge", cmd_wedge,
        ((["level"], {"type": int}),),
        ((["letters"], {"nargs": "+"}),),
        help="build the wedge model on letters and report its groups")
    add("k-invariant", cmd_k_invariant,
        ((["file"], {}),), ((["name"], {}),),
        help="the quadratic attaching invariant of a level-n object")
    add("suspend-compare", cmd_suspend_compare,
        ((["letters"], {"nargs": "+"}),),
        help="compare the stabilized level-2 wedge with the level-3 one")
    add("paste", cmd_paste,
        ((["file"], {}),), ((["first"], {}),), ((["second"], {}),),
        help="vertically compose two tracks and print the result")
    add("canon", cmd_canon, ((["file"], {}),),
        help="print the canonical form of a document")
    add("selftest", cmd_selftest,
        ((["-v", "--verbose"], {"action": "store_true"}),),
        help="run the full acceptance suite")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        print("invalid document: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except (H0Undecidable, EnumerationCapExceeded) as e:
        print("undecidable within cap: %s" % (e,), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, RuntimeError, NotImplementedError) as e:
        print("error: %s" % (e,), file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # noqa: BLE001 - the exit-code contract
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
