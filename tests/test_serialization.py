"""Text format: tokenizing, parsing, building, and canonical printing."""

import importlib.resources
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from secgroups.serialization import (
    ParseError, ValidationError, parse, print_document, canonicalize,
    describe_ab,
)
from secgroups.abelian import FinAbGroup
from secgroups.crossed import CrossedModule, ReducedQuadraticModule
from secgroups.nil2 import Class2Group


def _corpus():
    root = importlib.resources.files("secgroups") / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".sg"))


def test_corpus_files_exist():
    assert len(_corpus()) == 10


@pytest.mark.parametrize("path", _corpus(), ids=lambda p: p.name)
def test_corpus_round_trip_byte_identical(path):
    text = path.read_text()
    doc = parse(text)
    assert print_document(doc) == text
    assert canonicalize(text) == text


def test_parse_builds_live_objects():
    doc = parse("group N nil2 basis a b\n")
    g = doc["N"]
    assert isinstance(g, Class2Group)
    assert g.gen_names == ["a", "b"]


def test_parse_wedge_cross_block():
    text = (_corpus()[0].parent / "wedge_level2.sg").read_text()
    doc = parse(text)
    assert isinstance(doc["W"], ReducedQuadraticModule)


def test_parse_level1_cross_block():
    text = (_corpus()[0].parent / "crossed_level1.sg").read_text()
    doc = parse(text)
    assert any(isinstance(doc[n], CrossedModule) for n in doc.blocks)


def test_comments_and_whitespace_are_canonicalized_away():
    messy = "# a comment\n\ngroup   G  ab   2   rel  2 0\n# trailing\n"
    assert canonicalize(messy) == "group G ab 2 rel 2 0\n"


def test_abelian_relations_round_trip():
    doc = parse("group G ab 2 rel 2 0 rel 0 4\n")
    g = doc["G"]
    assert g.q.invariant_factors == (2, 4)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("group G ab two\n")
    assert exc.value.line == 1
    assert exc.value.col > 0


def test_parse_error_unknown_reference():
    with pytest.raises(ParseError):
        parse("hom f : G -> H { a -> b }\n")


def test_parse_error_malformed_exponent():
    with pytest.raises(ParseError):
        parse("group N nil2 basis a\n"
              "hom f : N -> N { a -> a^ }\n")


def test_parse_error_duplicate_name():
    with pytest.raises(ParseError):
        parse("group G ab 1\ngroup G ab 2\n")


_HEAD = ("group N nil2 basis a\n"
         "group M ab 1 rel 2\n"
         "hom del : M -> N { x0 -> 1 }\n")


@pytest.mark.parametrize("line, token, message", [
    # a second name in a one-name field
    ("cross W n=3 { M = M N ; N = N ; del = del ; omega = id }", "N ; N",
     "field 'M' takes one name, found a second: 'N'"),
    ("cross W n=3 { M = M ; N = N M ; del = del ; omega = id }", "M ; del",
     "field 'N' takes one name, found a second: 'M'"),
    ("cross W n=3 { M = M ; N = N ; del = del del ; omega = id }",
     "del ; omega", "field 'del' takes one name, found a second: 'del'"),
    ("cross W n=3 { M = M ; N = N ; del = del ; omega = id zero }", "zero",
     "field 'omega' takes one name, found a second: 'zero'"),
    ("cross W n=1 { M = M ; N = N ; del = del del ; act = trivial }",
     "del ; act", "field 'del' takes one name, found a second: 'del'"),
    # a repeated field
    ("cross W n=3 { M = M ; N = N ; del = del ; omega = id ; M = M }",
     "M = M }", "repeated field 'M' in cross block"),
    ("cross W n=1 { M = M ; N = N ; del = del ; act = trivial ; "
     "act = trivial }", "act = trivial }",
     "repeated field 'act' in cross block"),
    # a field the block does not take
    ("cross W n=3 { M = M ; N = N ; del = del ; omega = id ; act = x }",
     "act", "cross block has no field 'act' (it takes M, N, del, omega)"),
    ("cross W n=1 { M = M ; N = N ; del = del ; omega = id }", "omega",
     "cross block has no field 'omega' (it takes M, N, del, act)"),
    ("cross W n=2 { M = M ; N = N ; bnd = del ; omega = id }", "bnd",
     "cross block has no field 'bnd'"),
])
def test_cross_fields_are_refused_not_dropped(line, token, message):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse(_HEAD + line + "\n")
    assert (exc.value.line, exc.value.col) == (4, line.index(token) + 1)


def test_mor_fields_are_refused_not_dropped():
    head = (_HEAD + "group N2 nil2 basis a\n"
            "hom h : M -> M { x0 -> x0 }\nhom g : N -> N { a -> a }\n"
            "cross X n=2 { M = M ; N = N ; del = del ; omega = zero }\n")
    for fields, message in [
            ("f1 = h h ; f0 = g", "field 'f1' takes one name"),
            ("f1 = h ; f0 = g ; f1 = h", "repeated field 'f1' in mor block"),
            ("f1 = h ; f0 = g ; f2 = h", "mor block has no field 'f2'")]:
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse(head + "mor m : X -> X { %s }\n" % fields)
        assert exc.value.line == 8
    parse(head + "mor m : X -> X { f1 = h ; f0 = g }\n")


def test_the_dropped_fields_example_is_refused():
    """The example that canon once printed with a field dropped and the
    rest of the M field lost, exit 0."""
    with pytest.raises(ParseError) as exc:
        parse(_HEAD + "cross W n=3 { M = M N del ; N = N ; del = del ; "
              "omega = id ; act = nonsense ; M = M }\n")
    assert (exc.value.line, exc.value.col) == (4, 21)


def test_a_long_relation_into_a_free_group_is_refused_quickly():
    text = ("group M ab 1 rel 4000\n"
            "group F free basis a b\n"
            "hom d : M -> F { x0 -> a b }\n")
    start = time.perf_counter()
    with pytest.raises(ValidationError,
                       match="Q relation \\[4000\\] survives"):
        parse(text)
    assert time.perf_counter() - start < 2.0


def test_describe_ab():
    assert describe_ab(FinAbGroup(0)) == "0"
    assert describe_ab(FinAbGroup(2)) == "Z^2"
    assert "Z/2" in describe_ab(FinAbGroup(3, [[2, 0, 0], [0, 4, 0]]))


def test_empty_document():
    doc = parse("")
    assert print_document(doc) == ""


# the tokens of a canonical line: punctuation, or a run of anything else
_TOKEN = re.compile(r"->|=>|[{};:=\[\],]|[^\s{};:=\[\],]+")
_MUTATIONS = ("reference", "delete", "duplicate", "integer")
_DOCUMENTS = [text for text in (p.read_text() for p in _corpus()) if text]


@st.composite
def _mutants(draw):
    """A corpus document with a reference set to another block's name, and
    up to two more mutations: the same, a token deleted or duplicated, or
    an integer set to -3..9."""
    text = draw(st.sampled_from(_DOCUMENTS))
    lines = [_TOKEN.findall(line) for line in text.splitlines()]
    names = [line[1] for line in lines]
    # a reference first: the mutation that reaches the builders most
    for how in ["reference"] + draw(st.lists(st.sampled_from(_MUTATIONS),
                                             max_size=2)):
        spots = [(i, j) for i, line in enumerate(lines)
                 for j, tok in enumerate(line)
                 if how == "reference" and j > 1 and tok in names
                 or how == "integer" and re.fullmatch(r"-?[0-9]+", tok)
                 or how in ("delete", "duplicate")]
        if not spots:
            continue
        i, j = draw(st.sampled_from(spots))
        if how == "reference":
            lines[i][j] = draw(st.sampled_from(names))
        elif how == "integer":
            lines[i][j] = str(draw(st.integers(-3, 9)))
        elif how == "delete":
            del lines[i][j]
        else:
            lines[i].insert(j, lines[i][j])
    return "".join(" ".join(line) + "\n" for line in lines)


@given(text=_mutants())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_round_trip_or_fail_with_a_position(text):
    """Malformed input yields a document that prints canonically or a
    ParseError inside the input; never another exception."""
    try:
        doc = parse(text)
    except ParseError as e:
        assert 1 <= e.line <= len(text.splitlines()) and e.col >= 1
        return
    out = print_document(doc)
    assert canonicalize(out) == out
