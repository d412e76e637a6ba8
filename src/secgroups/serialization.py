"""Line-oriented text format for groups, maps, modules, tracks and
2-morphisms, with a deterministic printer.

Grammar (one block per line, `#` starts a comment, blank lines ignored):

    group G ab 3 rel 2 0 0 rel 0 4 0
    group N nil2 basis a b
    hom f : G -> H { a -> b a^-1 ; b -> c }
    hom w : tensor N -> M { a*b -> m ; ... }
    cross X n=2 { M = MG ; N = NG ; del = f ; omega = w }
    cross X n=1 { M = MG ; N = NG ; del = f ; act = trivial }
    mor m : X -> Y { f1 = h1 ; f0 = h0 }
    track T n=2 f => g alpha [[0, 1], [2, 3]]
    twomorphism A : m { a -> u ; b -> v }

Every block is named; later blocks may reference earlier ones by name.
`omega` is `id` (the tensor basis itself, for wedge-shaped M), `zero`, or
the name of a `tensor` hom.  Parsing is position-annotated; printing is
canonical (fixed spacing, images in source-generator order), so
parse-print-parse is the identity on canonical documents.
"""

from __future__ import annotations

from .abelian import AbMap, FinAbGroup
from .crossed import (AbCoords, CrossedModule, CrossMorphism, FreeGroupBase,
                      GroupAction, OmegaPairing, WordHom, quadratic_module)
from .nil2 import Class2Group, Class2Hom, abelian_as_class2, free_nil, nilize
from .tracks import HopfTrack, TwoMorphism, boundary_map
from .words import PointedSet, Word


class ParseError(ValueError):
    """Syntax or reference error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class ValidationError(ParseError):
    """A well-formed block that does not build a valid object (a hom that
    is not well defined, a mismatched module, ...), with its position."""


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_PUNCT = ("->", "=>", "{", "}", ";", ":", "=", "[", "]", ",")
_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_*^-")


class _Tok:
    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if line.startswith("->", i):
                toks.append(_Tok("->", ln, i + 1))
                i += 2
                continue
            if line.startswith("=>", i):
                toks.append(_Tok("=>", ln, i + 1))
                i += 2
                continue
            if ch in "{};:=[],":
                toks.append(_Tok(ch, ln, i + 1))
                i += 1
                continue
            if ch in _IDENT_CHARS:
                j = i
                while j < len(line) and line[j] in _IDENT_CHARS:
                    if line.startswith("->", j) or line.startswith("=>", j):
                        break
                    j += 1
                toks.append(_Tok(line[i:j], ln, i + 1))
                i = j
                continue
            raise ParseError("unexpected character %r" % ch, ln, i + 1)
    return toks


# ---------------------------------------------------------------------------
# block forms (the canonical abstract syntax)
# ---------------------------------------------------------------------------

class GroupBlock:
    def __init__(self, name: str, kind: str, k: int = 0, rels=None,
                 basis=None):
        self.name = name
        self.kind = kind                # "ab" | "nil2"
        self.k = k
        self.rels = rels if rels is not None else []
        self.basis = basis if basis is not None else []


class HomBlock:
    def __init__(self, name: str, src: str, tgt: str, tensor: bool, images):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.tensor = tensor
        self.images = images            # [(label, word-string)]


class CrossBlock:
    def __init__(self, name: str, n: int, m: str, ngrp: str, delname: str):
        self.name = name
        self.n = n
        self.m = m
        self.ngrp = ngrp
        self.delname = delname
        self.omega = ""     # tensor-hom name, "id" or "zero" (n >= 2)
        self.act = []       # ["trivial"] or hom names


class MorBlock:
    def __init__(self, name: str, src: str, tgt: str, f1: str, f0: str):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.f1 = f1
        self.f0 = f0


class TrackBlock:
    def __init__(self, name: str, n: int, f: str, g: str, alpha):
        self.name = name
        self.n = n
        self.f = f
        self.g = g
        self.alpha = alpha


class TwoBlock:
    def __init__(self, name: str, mor: str, values):
        self.name = name
        self.mor = mor
        self.values = values            # [(label, word-string)]


class Document:
    """Named blocks in order, with the live objects they build."""

    def __init__(self):
        self.order: list[str] = []
        self.blocks: dict[str, object] = {}
        self.objects: dict[str, object] = {}

    def add(self, block, obj):
        if block.name in self.blocks:
            raise ValueError("duplicate name %r" % block.name)
        self.order.append(block.name)
        self.blocks[block.name] = block
        self.objects[block.name] = obj

    def __contains__(self, name):
        return name in self.blocks

    def __getitem__(self, name):
        return self.objects[name]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def _err(self, msg):
        if self.i < len(self.toks):
            t = self.toks[self.i]
            raise ParseError(msg, t.line, t.col)
        last = self.toks[-1] if self.toks else _Tok("", 1, 1)
        raise ParseError(msg + " (at end of input)", last.line,
                         last.col + len(last.text))

    def peek(self):
        return self.toks[self.i].text if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            self._err("unexpected end of input")
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise ParseError("expected %r, found %r" % (text, t.text),
                             t.line, t.col)
        return t

    def ident(self, what="name"):
        t = self.next()
        if t.text in _PUNCT or not t.text:
            raise ParseError("expected %s, found %r" % (what, t.text),
                             t.line, t.col)
        return t

    def integer(self, what="integer"):
        t = self.next()
        try:
            return int(t.text)
        except ValueError:
            raise ParseError("expected %s, found %r" % (what, t.text),
                             t.line, t.col)

    # -- words ------------------------------------------------------------

    def word_tokens(self, stop=(";", "}")):
        """Collect word tokens up to a stop mark, validating exponents."""
        parts = []
        while self.peek() is not None and self.peek() not in stop:
            t = self.next()
            if "^" in t.text:
                sym, _, exp = t.text.partition("^")
                if not sym:
                    raise ParseError("exponent without a symbol", t.line,
                                     t.col)
                try:
                    int(exp)
                except ValueError:
                    raise ParseError(
                        "malformed exponent %r" % t.text, t.line,
                        t.col + len(sym) + 1)
            parts.append(t.text)
        if not parts:
            self._err("expected a word")
        return " ".join(parts)

    def _level(self) -> int:
        ntok = self.next()
        if ntok.text != "n":
            raise ParseError("expected n=<level>, found %r" % ntok.text,
                             ntok.line, ntok.col)
        self.expect("=")
        return self.integer("level")

    # -- blocks -------------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek() is not None:
            t = self.toks[self.i]
            kind = t.text
            if kind == "group":
                block = self.group_block()
            elif kind == "hom":
                block = self.hom_block()
            elif kind == "cross":
                block = self.cross_block()
            elif kind == "mor":
                block = self.mor_block()
            elif kind == "track":
                block = self.track_block()
            elif kind == "twomorphism":
                block = self.two_block()
            else:
                raise ParseError("unknown block kind %r" % kind, t.line,
                                 t.col)
            try:
                obj = _build(block, doc)
            except (ValueError, NotImplementedError) as e:
                raise ValidationError("in block %r: %s" % (block.name, e),
                                      t.line, t.col)
            try:
                doc.add(block, obj)
            except ValueError as e:
                raise ParseError(str(e), t.line, t.col)
        return doc

    def group_block(self) -> GroupBlock:
        self.expect("group")
        name = self.ident().text
        kind_tok = self.next()
        if kind_tok.text == "ab":
            k = self.integer("rank")
            rels = []
            while self.peek() == "rel":
                self.next()
                row = [self.integer("relation entry") for _ in range(k)]
                rels.append(row)
            return GroupBlock(name, "ab", k=k, rels=rels)
        if kind_tok.text in ("nil2", "free"):
            self.expect("basis")
            basis = []
            while self.peek() is not None and self.peek() not in (
                    "group", "hom", "cross", "mor", "track", "twomorphism"):
                basis.append(self.ident("basis symbol").text)
            if not basis:
                self._err("empty basis")
            return GroupBlock(name, kind_tok.text, basis=basis)
        raise ParseError("expected 'ab', 'nil2' or 'free', found %r"
                         % kind_tok.text, kind_tok.line, kind_tok.col)

    def hom_block(self) -> HomBlock:
        self.expect("hom")
        name = self.ident().text
        self.expect(":")
        tensor = False
        if self.peek() == "tensor":
            tensor = True
            self.next()
        src = self.ident("source group").text
        self.expect("->")
        tgt = self.ident("target group").text
        images = self._image_list()
        return HomBlock(name, src, tgt, tensor, images)

    def _image_list(self):
        self.expect("{")
        images = []
        if self.peek() == "}":
            self.next()
            return images
        while True:
            label = self.ident("generator").text
            self.expect("->")
            images.append((label, self.word_tokens()))
            if self.peek() == ";":
                self.next()
                continue
            self.expect("}")
            return images

    def cross_block(self) -> CrossBlock:
        self.expect("cross")
        name = self.ident().text
        n = self._level()
        self.expect("{")
        fields = {}
        while True:
            key = self.ident("field").text
            self.expect("=")
            vals = []
            while self.peek() not in (";", "}"):
                vals.append(self.ident("value").text)
            if not vals:
                self._err("empty field %r" % key)
            fields[key] = vals
            if self.peek() == ";":
                self.next()
                continue
            self.expect("}")
            break
        for req in ("M", "N", "del"):
            if req not in fields:
                self._err("cross block missing field %r" % req)
        block = CrossBlock(name, n, fields["M"][0], fields["N"][0],
                           fields["del"][0])
        if n >= 2:
            if "omega" not in fields:
                self._err("cross block missing field 'omega'")
            block.omega = fields["omega"][0]
        else:
            block.act = fields.get("act", ["trivial"])
        return block

    def mor_block(self) -> MorBlock:
        self.expect("mor")
        name = self.ident().text
        self.expect(":")
        src = self.ident("source object").text
        self.expect("->")
        tgt = self.ident("target object").text
        self.expect("{")
        fields = {}
        while True:
            key = self.ident("field").text
            self.expect("=")
            fields[key] = self.ident("hom name").text
            if self.peek() == ";":
                self.next()
                continue
            self.expect("}")
            break
        for req in ("f1", "f0"):
            if req not in fields:
                self._err("mor block missing field %r" % req)
        return MorBlock(name, src, tgt, fields["f1"], fields["f0"])

    def track_block(self) -> TrackBlock:
        self.expect("track")
        name = self.ident().text
        n = self._level()
        f = self.ident("source hom").text
        self.expect("=>")
        g = self.ident("target hom").text
        self.expect("alpha")
        alpha = self._matrix()
        return TrackBlock(name, n, f, g, alpha)

    def _matrix(self):
        self.expect("[")
        rows = []
        if self.peek() == "]":
            self.next()
            return rows
        while True:
            self.expect("[")
            row = []
            if self.peek() != "]":
                while True:
                    row.append(self.integer("matrix entry"))
                    if self.peek() == ",":
                        self.next()
                        continue
                    break
            self.expect("]")
            rows.append(row)
            if self.peek() == ",":
                self.next()
                continue
            break
        self.expect("]")
        return rows

    def two_block(self) -> TwoBlock:
        self.expect("twomorphism")
        name = self.ident().text
        self.expect(":")
        mor = self.ident("morphism name").text
        values = self._image_list()
        return TwoBlock(name, mor, values)


# ---------------------------------------------------------------------------
# building live objects
# ---------------------------------------------------------------------------

def _resolve(doc: Document, name: str, want: str):
    if name not in doc:
        raise ValueError("reference to undefined %s %r" % (want, name))
    return doc[name]


def _group_elem(group: Class2Group, word_text: str):
    w = Word.parse(word_text)
    for sym, _ in w.letters:
        if sym not in group.gen_names:
            raise ValueError("unknown generator %r" % sym)
    return nilize(w, group)


def _ordered_images(group: Class2Group, images, what):
    by_name = dict(images)
    if len(by_name) != len(images):
        raise ValueError("duplicate %s image" % what)
    out = []
    for name in group.gen_names:
        if name not in by_name:
            raise ValueError("missing image for generator %r" % name)
        out.append(by_name.pop(name))
    if by_name:
        raise ValueError("unknown generator %r" % next(iter(by_name)))
    return out


class TensorHom:
    """Images in a class-2 group for the tensor-square basis of another
    group's abelianization, used as an omega table."""

    def __init__(self, source: Class2Group, target: Class2Group, images):
        self.source = source
        self.target = target
        self.images = images        # row-major over source.gen_names pairs

    def labels(self):
        names = self.source.gen_names
        return ["%s*%s" % (a, b) for a in names for b in names]


def _build(block, doc: Document):
    if isinstance(block, GroupBlock):
        if block.kind == "ab":
            for row in block.rels:
                if len(row) != block.k:
                    raise ValueError("relation arity != rank")
            names = ["x%d" % i for i in range(block.k)]
            return abelian_as_class2(FinAbGroup(block.k, block.rels), names)
        if block.kind == "free":
            return FreeGroupBase(PointedSet(["*"] + block.basis))
        return free_nil(PointedSet(["*"] + block.basis))

    if isinstance(block, HomBlock):
        src = _resolve(doc, block.src, "group")
        tgt = _resolve(doc, block.tgt, "group")
        if isinstance(tgt, FreeGroupBase):
            if block.tensor or not isinstance(src, Class2Group):
                raise ValueError("a hom into a free group needs a plain "
                                 "group source")
            imgs = _ordered_images(src, block.images, "generator")
            for text in imgs:
                w = Word.parse(text)
                for sym, _ in w.letters:
                    if sym not in tgt.points:
                        raise ValueError("unknown generator %r" % sym)
            return WordHom(src, tgt, [Word.parse(t) for t in imgs])
        if not isinstance(src, Class2Group) or not isinstance(
                tgt, Class2Group):
            raise ValueError("hom endpoints must be groups")
        if block.tensor:
            labels = ["%s*%s" % (a, b) for a in src.gen_names
                      for b in src.gen_names]
            by_name = dict(block.images)
            images = []
            for lab in labels:
                if lab not in by_name:
                    raise ValueError("missing omega image for %r" % lab)
                images.append(_group_elem(tgt, by_name[lab]))
            return TensorHom(src, tgt, images)
        imgs = _ordered_images(src, block.images, "generator")
        return src.free_hom(tgt, [_group_elem(tgt, w) for w in imgs])

    if isinstance(block, CrossBlock):
        m = _resolve(doc, block.m, "group")
        ngrp = _resolve(doc, block.ngrp, "group")
        bnd = _resolve(doc, block.delname, "hom")
        if not isinstance(bnd, (Class2Hom, WordHom)):
            raise ValueError("'del' must be a hom")
        if not (bnd.source is m and bnd.target is ngrp):
            raise ValueError("'del' endpoints do not match M and N")
        if isinstance(ngrp, FreeGroupBase) and block.n != 1:
            raise ValueError("a free-group base needs level 1")
        if block.n == 1:
            if block.act == ["trivial"]:
                action = GroupAction.trivial(ngrp, m)
            else:
                autos = [_resolve(doc, a, "hom") for a in block.act]
                action = GroupAction(ngrp, m, autos)
            return CrossedModule(m, ngrp, bnd, action)
        coords = AbCoords(ngrp)
        nq = ngrp.q.ngens
        if block.omega == "id":
            if m.q.ngens != nq * nq:
                raise ValueError("omega=id needs M of tensor-square size")
            images = [m.generator(p) for p in range(nq * nq)]
        elif block.omega == "zero":
            images = [m.identity() for _ in range(nq * nq)]
        else:
            th = _resolve(doc, block.omega, "tensor hom")
            if not isinstance(th, TensorHom):
                raise ValueError("'omega' must be a tensor hom, id or zero")
            if th.source is not ngrp or th.target is not m:
                raise ValueError("omega endpoints do not match N and M")
            images = th.images
        return quadratic_module(m, ngrp, bnd, OmegaPairing(coords, m, images),
                                block.n)

    if isinstance(block, MorBlock):
        src = _resolve(doc, block.src, "object")
        tgt = _resolve(doc, block.tgt, "object")
        f1 = _resolve(doc, block.f1, "hom")
        f0 = _resolve(doc, block.f0, "hom")
        return CrossMorphism(src, tgt, f1, f0)

    if isinstance(block, TrackBlock):
        f = _resolve(doc, block.f, "hom")
        g = _resolve(doc, block.g, "hom")
        lts, _, _, _ = boundary_map(block.n, f.target)
        alpha = AbMap(FinAbGroup(f.source.q.ngens), lts,
                      [row[:] for row in block.alpha], check=False)
        return HopfTrack(block.n, f, g, alpha)

    if isinstance(block, TwoBlock):
        mor = _resolve(doc, block.mor, "mor")
        if not isinstance(mor, CrossMorphism):
            raise ValueError("twomorphism needs a mor block")
        imgs = _ordered_images(mor.src.base, block.values, "base")
        values = [_group_elem(mor.tgt.m, w) for w in imgs]
        return TwoMorphism(mor, values)

    raise TypeError("unknown block type %r" % type(block).__name__)


def parse(text: str) -> Document:
    return _Parser(text).parse_document()


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------

def _canon_word(text: str) -> str:
    return str(Word.parse(text))


def _print_block(block) -> str:
    if isinstance(block, GroupBlock):
        if block.kind == "ab":
            out = "group %s ab %d" % (block.name, block.k)
            for row in block.rels:
                out += " rel " + " ".join(str(v) for v in row)
            return out
        return "group %s %s basis %s" % (block.name, block.kind,
                                         " ".join(block.basis))
    if isinstance(block, HomBlock):
        arrow = "tensor %s -> %s" % (block.src, block.tgt) if block.tensor \
            else "%s -> %s" % (block.src, block.tgt)
        body = " ; ".join("%s -> %s" % (lab, _canon_word(w))
                          for lab, w in block.images)
        if not body:
            return "hom %s : %s { }" % (block.name, arrow)
        return "hom %s : %s { %s }" % (block.name, arrow, body)
    if isinstance(block, CrossBlock):
        fields = ["M = %s" % block.m, "N = %s" % block.ngrp,
                  "del = %s" % block.delname]
        if block.n >= 2:
            fields.append("omega = %s" % block.omega)
        else:
            fields.append("act = %s" % " ".join(block.act))
        return "cross %s n=%d { %s }" % (block.name, block.n,
                                         " ; ".join(fields))
    if isinstance(block, MorBlock):
        return "mor %s : %s -> %s { f1 = %s ; f0 = %s }" % (
            block.name, block.src, block.tgt, block.f1, block.f0)
    if isinstance(block, TrackBlock):
        rows = ", ".join("[%s]" % ", ".join(str(v) for v in row)
                         for row in block.alpha)
        return "track %s n=%d %s => %s alpha [%s]" % (
            block.name, block.n, block.f, block.g, rows)
    if isinstance(block, TwoBlock):
        body = " ; ".join("%s -> %s" % (lab, _canon_word(w))
                          for lab, w in block.values)
        return "twomorphism %s : %s { %s }" % (block.name, block.mor, body)
    raise TypeError("unknown block type %r" % type(block).__name__)


def print_document(doc: Document) -> str:
    lines = [_print_block(doc.blocks[name]) for name in doc.order]
    return "\n".join(lines) + ("\n" if lines else "")


def canonicalize(text: str) -> str:
    return print_document(parse(text))


# ---------------------------------------------------------------------------
# describing groups in reports
# ---------------------------------------------------------------------------

def describe_ab(a: FinAbGroup) -> str:
    """A human-readable isomorphism type like 'Z^2 x Z/2 x Z/4'."""
    parts = []
    r = a.free_rank
    if r == 1:
        parts.append("Z")
    elif r > 1:
        parts.append("Z^%d" % r)
    for d in a.invariant_factors:
        parts.append("Z/%d" % d)
    return " x ".join(parts) if parts else "0"
