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
the name of a `tensor` hom.  A `cross` block takes `omega` at n >= 2 and
`act` (several hom names, or `trivial`) at n = 1; every other field names
one block.  A field a block does not take, a repeated field and a second
name in a one-name field are positioned errors, never dropped.

Each block kind is declared once, as one class: its keyword, its parser,
the live object it builds, its canonical line and the words for what it
built ("a group", "a level-2 crossed module", ...).  The table `KINDS`
maps each keyword to its class.  Every reference, in a document or on the
command line, resolves through `Document.get`, which checks the kind of
the block it names against a `Need`.  A reference to a missing block or to
a block of the wrong kind is therefore a positioned error.  A map also
has its ends checked: a `mor` block takes f1 from the M of its source to
the M of its target, f0 between their bases, and sides of one level.

Parsing is position-annotated; printing is canonical (fixed spacing, images
in the order given), so parse-print-parse is the identity on canonical
documents.
"""

from __future__ import annotations

from .abelian import AbMap, FinAbGroup
from .crossed import (AbCoords, CrossedModule, CrossMorphism, FreeGroupBase,
                      GroupAction, OmegaPairing, ReducedQuadraticModule,
                      WordHom, quadratic_module)
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
    is not well defined, a mismatched module, a reference to a block of
    the wrong kind, ...), with its position."""


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
# references: what a block built, and what a reference needs
# ---------------------------------------------------------------------------

class TensorHom:
    """Images in a class-2 group for the tensor-square basis of another
    group's abelianization, used as an omega table."""

    def __init__(self, source: Class2Group, target: Class2Group, images):
        self.source = source
        self.target = target
        self.images = images        # row-major over source.gen_names pairs


class Need:
    """The kind of block a reference needs, as said in its errors: an
    object of one of `types`, and of a level in `levels` when given."""

    def __init__(self, text: str, types, levels=None):
        self.text = text
        self.types = types
        self.levels = levels

    def admits(self, obj) -> bool:
        return isinstance(obj, self.types) and (
            self.levels is None or obj.level in self.levels)


GROUP = Need("a group", (Class2Group,))
BASE = Need("a group or a free group", (Class2Group, FreeGroupBase))
HOM = Need("a hom of class-2 groups", (Class2Hom,))
ANY_HOM = Need("a hom", (Class2Hom, WordHom))
TENSOR_HOM = Need("a tensor hom, id or zero", (TensorHom,))
CROSSED = Need("a crossed module", (CrossedModule, ReducedQuadraticModule))
MORPHISM = Need("a morphism", (CrossMorphism,))


class Document:
    """Named blocks in order, each holding the live object it built."""

    def __init__(self):
        self.blocks: dict[str, Block] = {}

    def __getitem__(self, name):
        return self.blocks[name].obj

    def get(self, name: str, user: str, need: Need):
        """The object block `name` built, when `need` admits it; `user`
        (a command, a field of a block) names who needs it in errors."""
        if name not in self.blocks:
            raise ValueError("no block named %r" % name)
        block = self.blocks[name]
        if not need.admits(block.obj):
            raise ValueError("block %s is %s; %s needs %s"
                             % (name, block.built(), user, need.text))
        return block.obj


def _map(doc: Document, name: str, user: str, need: Need, source, target,
         ends: str):
    """The map block `name` built, when `need` admits it and it goes from
    `source` to `target` (said as `ends` in errors)."""
    f = doc.get(name, user, need)
    if f.source is not source or f.target is not target:
        raise ValueError("%s must go from %s" % (user, ends))
    return f


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def error(self, msg):
        """Raise a ParseError at the next token, or at the end of input."""
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
            self.error("unexpected end of input")
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

    def integer(self, what="integer", least=None):
        """An integer token; one below `least` is refused."""
        t = self.next()
        try:
            value = int(t.text)
        except ValueError:
            raise ParseError("expected %s, found %r" % (what, t.text),
                             t.line, t.col)
        if least is not None and value < least:
            raise ParseError("expected %s of at least %d, found %r"
                             % (what, least, t.text), t.line, t.col)
        return value

    def word_tokens(self):
        """Collect word tokens up to a `;` or `}`, validating exponents."""
        parts = []
        while self.peek() is not None and self.peek() not in (";", "}"):
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
            self.error("expected a word")
        return " ".join(parts)

    def level(self, least: int) -> int:
        ntok = self.next()
        if ntok.text != "n":
            raise ParseError("expected n=<level>, found %r" % ntok.text,
                             ntok.line, ntok.col)
        self.expect("=")
        return self.integer("level", least)

    def images(self):
        """`{ label -> word ; ... }` as (label, word-string) pairs."""
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

    def fields(self, keyword: str, names, required):
        """`{ key = value ... ; ... }` as a dict of value lists, with every
        `required` key.  `names` maps each key the block takes to whether
        it takes several names; a key it does not take, a repeated key and
        a second name in a one-name field are errors at their token."""
        self.expect("{")
        fields = {}
        while True:
            key = self.ident("field")
            if key.text not in names:
                raise ParseError("%s block has no field %r (it takes %s)"
                                 % (keyword, key.text, ", ".join(names)),
                                 key.line, key.col)
            if key.text in fields:
                raise ParseError("repeated field %r in %s block"
                                 % (key.text, keyword), key.line, key.col)
            self.expect("=")
            vals = []
            while self.peek() not in (";", "}"):
                t = self.ident("value")
                if vals and not names[key.text]:
                    raise ParseError("field %r takes one name, found a "
                                     "second: %r" % (key.text, t.text),
                                     t.line, t.col)
                vals.append(t.text)
            if not vals:
                self.error("empty field %r" % key.text)
            fields[key.text] = vals
            if self.peek() == ";":
                self.next()
                continue
            self.expect("}")
            break
        for req in required:
            if req not in fields:
                self.error("%s block missing field %r" % (keyword, req))
        return fields

    def matrix(self):
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

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek() is not None:
            t = self.next()
            kind = KINDS.get(t.text)
            if kind is None:
                raise ParseError("unknown block kind %r" % t.text, t.line,
                                 t.col)
            block = kind.parse(self, self.ident().text)
            if block.name in doc.blocks:
                raise ParseError("duplicate name %r" % block.name, t.line,
                                 t.col)
            try:
                block.obj = block.build(doc)
            except (ValueError, NotImplementedError) as e:
                raise ValidationError("in block %r: %s" % (block.name, e),
                                      t.line, t.col)
            doc.blocks[block.name] = block
        return doc


# ---------------------------------------------------------------------------
# block kinds
# ---------------------------------------------------------------------------

def _word(names, text: str) -> Word:
    w = Word.parse(text)
    for sym, _ in w.letters:
        if sym not in names:
            raise ValueError("unknown generator %r" % sym)
    return w


def _group_elem(group: Class2Group, text: str):
    return nilize(_word(group.gen_names, text), group)


def _ordered_images(labels, images) -> list[str]:
    """The word-strings of (label, word-string) pairs in the order of
    `labels`, one for each label."""
    by_label = {}
    for label, text in images:
        if label in by_label:
            raise ValueError("two images for %r" % label)
        if label not in labels:
            raise ValueError("unknown generator %r" % label)
        by_label[label] = text
    for label in labels:
        if label not in by_label:
            raise ValueError("missing image for %r" % label)
    return [by_label[label] for label in labels]


def _image_body(images) -> str:
    return " ; ".join("%s -> %s" % (label, Word.parse(text))
                      for label, text in images)


class Block:
    """A named block of a document.  A kind declares its `keyword`, parses
    the rest of its line (`parse`), builds its live object from the blocks
    above it (`build`), prints its canonical line (`__str__`) and says
    what it built in the words of the format (`built`)."""

    keyword = ""
    noun = ""
    obj = None          # the live object, once built

    def built(self) -> str:
        return self.noun


class GroupBlock(Block):
    keyword = "group"

    def __init__(self, name: str, kind: str, k: int = 0, rels=None,
                 basis=None):
        self.name = name
        self.kind = kind                # "ab" | "nil2" | "free"
        self.k = k
        self.rels = rels if rels is not None else []
        self.basis = basis if basis is not None else []

    @classmethod
    def parse(cls, p, name):
        kind_tok = p.next()
        if kind_tok.text == "ab":
            k = p.integer("rank", 0)
            rels = []
            while p.peek() == "rel":
                p.next()
                rels.append([p.integer("relation entry") for _ in range(k)])
            return cls(name, "ab", k=k, rels=rels)
        if kind_tok.text in ("nil2", "free"):
            p.expect("basis")
            basis = []
            while p.peek() is not None and p.peek() not in KINDS:
                basis.append(p.ident("basis symbol").text)
            if not basis:
                p.error("empty basis")
            return cls(name, kind_tok.text, basis=basis)
        raise ParseError("expected 'ab', 'nil2' or 'free', found %r"
                         % kind_tok.text, kind_tok.line, kind_tok.col)

    def build(self, doc):
        if self.kind == "ab":
            names = ["x%d" % i for i in range(self.k)]
            return abelian_as_class2(FinAbGroup(self.k, self.rels), names)
        if self.kind == "free":
            return FreeGroupBase(PointedSet(["*"] + self.basis))
        return free_nil(PointedSet(["*"] + self.basis))

    def built(self):
        return "a free group" if self.kind == "free" else "a group"

    def __str__(self):
        if self.kind == "ab":
            out = "group %s ab %d" % (self.name, self.k)
            for row in self.rels:
                out += " rel " + " ".join(str(v) for v in row)
            return out
        return "group %s %s basis %s" % (self.name, self.kind,
                                         " ".join(self.basis))


class HomBlock(Block):
    keyword = "hom"

    def __init__(self, name: str, src: str, tgt: str, tensor: bool, images):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.tensor = tensor
        self.images = images            # [(label, word-string)]

    @classmethod
    def parse(cls, p, name):
        p.expect(":")
        tensor = p.peek() == "tensor"
        if tensor:
            p.next()
        src = p.ident("source group").text
        p.expect("->")
        tgt = p.ident("target group").text
        return cls(name, src, tgt, tensor, p.images())

    def build(self, doc):
        src = doc.get(self.src, "the source", GROUP)
        if self.tensor:
            tgt = doc.get(self.tgt, "the target", GROUP)
            labels = ["%s*%s" % (a, b) for a in src.gen_names
                      for b in src.gen_names]
            return TensorHom(src, tgt, [
                _group_elem(tgt, w)
                for w in _ordered_images(labels, self.images)])
        tgt = doc.get(self.tgt, "the target", BASE)
        imgs = _ordered_images(src.gen_names, self.images)
        if isinstance(tgt, FreeGroupBase):
            return WordHom(src, tgt, [_word(tgt.gen_names, w) for w in imgs])
        return src.free_hom(tgt, [_group_elem(tgt, w) for w in imgs])

    def built(self):
        if self.tensor:
            return "a tensor hom"
        if isinstance(self.obj, WordHom):
            return "a hom into a free group"
        return "a hom"

    def __str__(self):
        arrow = "%s -> %s" % (self.src, self.tgt)
        if self.tensor:
            arrow = "tensor " + arrow
        if not self.images:
            return "hom %s : %s { }" % (self.name, arrow)
        return "hom %s : %s { %s }" % (self.name, arrow,
                                       _image_body(self.images))


class CrossBlock(Block):
    keyword = "cross"

    def __init__(self, name: str, n: int, m: str, ngrp: str, delname: str):
        self.name = name
        self.n = n
        self.m = m
        self.ngrp = ngrp
        self.delname = delname
        self.omega = ""     # tensor-hom name, "id" or "zero" (n >= 2)
        self.act = []       # ["trivial"] or hom names

    @classmethod
    def parse(cls, p, name):
        n = p.level(1)
        # one name in each field but act, which lists the action's homs
        last = "omega" if n >= 2 else "act"
        fields = p.fields(cls.keyword,
                          {"M": False, "N": False, "del": False, last: n == 1},
                          ("M", "N", "del") + (("omega",) if n >= 2 else ()))
        block = cls(name, n, fields["M"][0], fields["N"][0],
                    fields["del"][0])
        if n >= 2:
            block.omega = fields["omega"][0]
        else:
            block.act = fields.get("act", ["trivial"])
        return block

    def build(self, doc):
        m = doc.get(self.m, "'M'", GROUP)
        ngrp = doc.get(self.ngrp, "'N' at level %d" % self.n,
                       BASE if self.n == 1 else GROUP)
        bnd = _map(doc, self.delname, "'del'", ANY_HOM, m, ngrp,
                   "%s to %s" % (self.m, self.ngrp))
        if self.n == 1:
            if self.act == ["trivial"]:
                action = GroupAction.trivial(ngrp, m)
            else:
                action = GroupAction(ngrp, m, [
                    _map(doc, a, "'act'", HOM, m, m,
                         "%s to %s" % (self.m, self.m)) for a in self.act])
            return CrossedModule(m, ngrp, bnd, action)
        nq = ngrp.q.ngens
        if self.omega == "id":
            if m.q.ngens != nq * nq:
                raise ValueError("omega=id needs M of tensor-square size")
            images = [m.generator(p) for p in range(nq * nq)]
        elif self.omega == "zero":
            images = [m.identity() for _ in range(nq * nq)]
        else:
            images = _map(doc, self.omega, "'omega'", TENSOR_HOM, ngrp, m,
                          "tensor %s to %s" % (self.ngrp, self.m)).images
        return quadratic_module(
            m, ngrp, bnd, OmegaPairing(AbCoords(ngrp), m, images), self.n)

    def built(self):
        return "a level-%d crossed module" % self.n

    def __str__(self):
        fields = ["M = %s" % self.m, "N = %s" % self.ngrp,
                  "del = %s" % self.delname]
        if self.n >= 2:
            fields.append("omega = %s" % self.omega)
        else:
            fields.append("act = %s" % " ".join(self.act))
        return "cross %s n=%d { %s }" % (self.name, self.n,
                                         " ; ".join(fields))


class MorBlock(Block):
    keyword = "mor"
    noun = "a morphism"

    def __init__(self, name: str, src: str, tgt: str, f1: str, f0: str):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.f1 = f1
        self.f0 = f0

    @classmethod
    def parse(cls, p, name):
        p.expect(":")
        src = p.ident("source object").text
        p.expect("->")
        tgt = p.ident("target object").text
        fields = p.fields(cls.keyword, {"f1": False, "f0": False},
                          ("f1", "f0"))
        return cls(name, src, tgt, fields["f1"][0], fields["f0"][0])

    def build(self, doc):
        src = doc.get(self.src, "the source", CROSSED)
        tgt = doc.get(self.tgt, "the target", CROSSED)
        if src.level != tgt.level:
            raise ValueError("a mor needs one level on both sides, not %d "
                             "and %d" % (src.level, tgt.level))
        f1 = _map(doc, self.f1, "'f1'", HOM, src.m, tgt.m,
                  "the M of %s to the M of %s" % (self.src, self.tgt))
        f0 = _map(doc, self.f0, "'f0'", ANY_HOM, src.base, tgt.base,
                  "the base of %s to the base of %s" % (self.src, self.tgt))
        return CrossMorphism(src, tgt, f1, f0)

    def __str__(self):
        return "mor %s : %s -> %s { f1 = %s ; f0 = %s }" % (
            self.name, self.src, self.tgt, self.f1, self.f0)


class TrackBlock(Block):
    keyword = "track"
    noun = "a track"

    def __init__(self, name: str, n: int, f: str, g: str, alpha):
        self.name = name
        self.n = n
        self.f = f
        self.g = g
        self.alpha = alpha

    @classmethod
    def parse(cls, p, name):
        n = p.level(2)
        f = p.ident("source hom").text
        p.expect("=>")
        g = p.ident("target hom").text
        p.expect("alpha")
        return cls(name, n, f, g, p.matrix())

    def build(self, doc):
        f = doc.get(self.f, "the source", HOM)
        g = doc.get(self.g, "the target", HOM)
        lts, _, _, _ = boundary_map(self.n, f.target)
        alpha = AbMap(FinAbGroup(f.source.q.ngens), lts, self.alpha,
                      check=False)
        return HopfTrack(self.n, f, g, alpha)

    def __str__(self):
        rows = ", ".join("[%s]" % ", ".join(str(v) for v in row)
                         for row in self.alpha)
        return "track %s n=%d %s => %s alpha [%s]" % (
            self.name, self.n, self.f, self.g, rows)


class TwoBlock(Block):
    keyword = "twomorphism"
    noun = "a 2-morphism"

    def __init__(self, name: str, mor: str, values):
        self.name = name
        self.mor = mor
        self.values = values            # [(label, word-string)]

    @classmethod
    def parse(cls, p, name):
        p.expect(":")
        mor = p.ident("morphism name").text
        return cls(name, mor, p.images())

    def build(self, doc):
        mor = doc.get(self.mor, "the morphism", MORPHISM)
        imgs = _ordered_images(mor.src.base.gen_names, self.values)
        return TwoMorphism(mor, [_group_elem(mor.tgt.m, w) for w in imgs])

    def __str__(self):
        return "twomorphism %s : %s { %s }" % (self.name, self.mor,
                                               _image_body(self.values))


KINDS = {kind.keyword: kind for kind in (GroupBlock, HomBlock, CrossBlock,
                                         MorBlock, TrackBlock, TwoBlock)}


def parse(text: str) -> Document:
    return _Parser(text).parse_document()


def print_document(doc: Document) -> str:
    return "".join("%s\n" % block for block in doc.blocks.values())


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
