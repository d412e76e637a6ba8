"""Command-line interface: exit-code contract and output shape."""

import importlib.resources

import pytest

from secgroups import cli
from secgroups.cli import main, EXIT_OK, EXIT_ERROR, EXIT_INTERNAL


CORPUS = importlib.resources.files("secgroups") / "corpus"


def _path(name):
    return str(CORPUS / name)


def test_check_valid_object(capsys):
    assert main(["check", _path("wedge_level2.sg"), "W"]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_check_hom_into_free_group(capsys):
    assert main(["check", _path("free_base.sg"), "del1"]) == EXIT_OK
    assert capsys.readouterr().out == "check del1: ok\n"


def test_check_unknown_name_errors():
    assert main(["check", _path("wedge_level2.sg"), "NOPE"]) == EXIT_ERROR


def test_missing_file_errors():
    assert main(["canon", "/nonexistent/file.sg"]) == EXIT_ERROR


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.sg"
    bad.write_text("group G ab two\n")
    assert main(["canon", str(bad)]) == EXIT_ERROR


def test_canon_round_trip(capsys):
    assert main(["canon", _path("track.sg")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (CORPUS / "track.sg").read_text()


def test_homotopy_groups_of_wedge(capsys):
    assert main(["homotopy-groups", _path("wedge_level2.sg"), "W"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h1" in out and "Z" in out


def test_h1_output(capsys):
    assert main(["h1", _path("wedge_level2.sg"), "W"]) == EXIT_OK
    assert "Z" in capsys.readouterr().out


def test_h1_over_a_free_base(tmp_path, capsys):
    """M has rank one and torsion Z/38, and its boundary into F(a) is not
    zero, so its kernel h1 is Z/38 (it printed Z x Z/38 when M's relations
    were rewritten modulo themselves)."""
    doc = tmp_path / "level1.sg"
    doc.write_text(
        "group F free basis a\n"
        "group M ab 4 rel 6 -2 -6 2 rel 1 -4 -3 -1 rel -18 2 21 -4\n"
        "hom del : M -> F { x0 -> a^-3 ; x1 -> 1 ; x2 -> a^-2 ; x3 -> a^3 }\n"
        "cross X n=1 { M = M ; N = F ; del = del ; act = trivial }\n")
    assert main(["h1", str(doc), "X"]) == EXIT_OK
    assert capsys.readouterr().out == "h1 X = Z/38\n"


def test_h0_undecidable_exit_2():
    assert main(["h0", _path("free_base.sg"), "X",
                 "--coset-cap", "100"]) == EXIT_ERROR


def test_h0_finite_order(capsys):
    assert main(["h0", _path("free_base.sg"), "Y",
                 "--coset-cap", "50"]) == EXIT_OK
    assert "5" in capsys.readouterr().out


def test_coset_cap_before_subcommand(capsys):
    assert main(["--coset-cap", "50", "h0",
                 _path("free_base.sg"), "Y"]) == EXIT_OK
    # the cap given before the command is the one enumeration uses
    assert main(["--coset-cap", "3", "h0",
                 _path("free_base.sg"), "Y"]) == EXIT_ERROR
    assert main(["--coset-cap", "3", "h0",
                 _path("free_base.sg"), "Y", "--coset-cap", "50"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "undecidable within cap: coset cap 3 exceeded\n")


def test_options_before_and_after_the_command():
    parse = cli._build_parser().parse_args
    args = parse(["--seed", "7", "--coset-cap", "9", "canon", "f.sg"])
    assert (args.seed, args.coset_cap) == (7, 9)
    args = parse(["--seed", "7", "canon", "f.sg", "--seed", "8"])
    assert (args.seed, args.coset_cap) == (8, None)
    args = parse(["canon", "f.sg"])
    assert (args.seed, args.coset_cap) == (0, None)


@pytest.mark.parametrize("argv", [
    ["h0", _path("free_base.sg"), "Y", "--coset-cap", "-3"],
    ["h0", _path("free_base.sg"), "Y", "--coset-cap", "0"],
    ["--coset-cap", "-3", "h0", _path("free_base.sg"), "Y"],
])
def test_coset_cap_flag_must_be_positive(capsys, argv):
    assert main(argv) == EXIT_ERROR
    cap = argv[argv.index("--coset-cap") + 1]
    assert capsys.readouterr().err == (
        "error: --coset-cap must be a positive integer, got '%s'\n" % cap)


@pytest.mark.parametrize("cap", ["abc", "-3", "0", "2.5"])
def test_coset_cap_variable_must_be_positive(capsys, monkeypatch, cap):
    monkeypatch.setenv("SECGROUPS_COSET_CAP", cap)
    assert main(["h0", _path("free_base.sg"), "Y"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: SECGROUPS_COSET_CAP must be a positive integer, "
        "got '%s'\n" % cap)


def test_coset_cap_variable_sets_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("SECGROUPS_COSET_CAP", "50")
    assert main(["h0", _path("free_base.sg"), "Y"]) == EXIT_OK
    monkeypatch.setenv("SECGROUPS_COSET_CAP", "3")
    assert main(["h0", _path("free_base.sg"), "Y"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "undecidable within cap: coset cap 3 exceeded\n")


def test_fiber_and_six_term(capsys):
    assert main(["fiber", _path("morphism.sg"), "m"]) == EXIT_OK
    assert main(["six-term", _path("morphism.sg"), "m"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exact" in out


def test_wedge_command(capsys):
    assert main(["wedge", "2", "a", "b"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h1" in out


def test_k_invariant_command(capsys):
    assert main(["k-invariant", _path("wedge_level2.sg"), "W"]) == EXIT_OK
    assert "iso" in capsys.readouterr().out


def test_suspend_compare(capsys):
    assert main(["suspend-compare", "a"]) == EXIT_OK
    assert "weak equivalence" in capsys.readouterr().out


def test_phi_and_ad(capsys):
    assert main(["phi", "2", _path("wedge_level2.sg"), "W"]) == EXIT_OK
    assert main(["ad", "3", _path("wedge_level2.sg"), "W"]) == EXIT_OK


def test_paste_tracks(capsys, tmp_path):
    # a track composed with itself is not pasteable unless endpoints match;
    # build a document with an identity-source track pair instead
    text = (CORPUS / "track.sg").read_text()
    doc = tmp_path / "two.sg"
    doc.write_text(text + "track U n=2 g => f alpha "
                          "[[0, 0], [-1, 0], [0, 0], [0, 0]]\n")
    assert main(["paste", str(doc), "T", "U"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("track")


def test_paste_non_pasteable_errors():
    assert main(["paste", _path("track.sg"), "T", "T"]) == EXIT_ERROR


def test_adjoint_check(capsys, tmp_path):
    doc = tmp_path / "adj.sg"
    doc.write_text(
        "group F free basis a\n"
        "group M0 ab 0\n"
        "hom d0 : M0 -> F { }\n"
        "cross X n=1 { M = M0 ; N = F ; del = d0 ; act = trivial }\n"
        "group C2 ab 1 rel 2\n"
        "group D2 ab 1 rel 2\n"
        "hom dy : C2 -> D2 { x0 -> 1 }\n"
        "cross Y n=2 { M = C2 ; N = D2 ; del = dy ; omega = zero }\n")
    assert main(["adjoint-check", "2", str(doc), "X", "Y"]) == EXIT_OK
    assert "bijection" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["six-term", "morphism.sg", "X"],
     "block X is a level-2 crossed module; six-term needs a morphism"),
    (["fiber", "wedge_level2.sg", "W"],
     "block W is a level-2 crossed module; fiber needs a morphism"),
    (["ad", "2", "wedge_level2.sg", "W"],
     "block W is a level-2 crossed module; ad 2 needs a level-1 crossed "
     "module"),
    (["adjoint-check", "2", "morphism.sg", "X", "Y"],
     "block X is a level-2 crossed module; adjoint-check 2 needs a level-1 "
     "crossed module"),
    (["h0", "abelian_groups.sg", "B"],
     "block B is a group; h0 needs a crossed module"),
    (["phi", "3", "wedge_level2.sg", "W"],
     "block W is a level-2 crossed module; phi 3 needs a crossed module of "
     "level 3 or more"),
    (["adjoint-check", "3", "omega_table.sg", "Q", "Q"],
     "block Q is a level-2 crossed module; adjoint-check 3 needs a crossed "
     "module of level 3 or more"),
])
def test_wrong_block_kind_is_an_error_not_a_crash(argv, message, capsys):
    argv = [_path(a) if a.endswith(".sg") else a for a in argv]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise AttributeError("no attribute 'base'")

    monkeypatch.setattr(cli, "cmd_canon", broken)
    assert main(["canon", _path("track.sg")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: AttributeError: no attribute 'base'\n"


def test_invalid_hom_is_a_validation_error(tmp_path, capsys):
    doc = tmp_path / "bad_hom.sg"
    doc.write_text("group A ab 1 rel 2\n"
                   "group B ab 1\n"
                   "hom f : A -> B { x0 -> x0 }\n")
    assert main(["check", str(doc), "f"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid document: line 3, col 1: in block 'f': "
                            "hom disagrees on relation representatives\n")


def test_slip_while_building_a_block_is_an_internal_error(monkeypatch,
                                                          capsys):
    from secgroups import serialization

    def broken(block, doc):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(serialization.TrackBlock, "build", broken)
    assert main(["canon", _path("track.sg")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == \
        "internal error: TypeError: unsupported operand\n"


_TRACK = (CORPUS / "track.sg").read_text()
_FREE = (CORPUS / "free_base.sg").read_text()
_WEDGE = (CORPUS / "wedge_level2.sg").read_text()
_ONE_LETTER = ("group M ab 1\n"
               "group N nil2 basis a\n"
               "hom del : M -> N { x0 -> 1 }\n"
               "cross X n=1 { M = M ; N = N ; del = del ; act = trivial }\n")


@pytest.mark.parametrize("text, message", [
    (_TRACK + "mor m : f -> f { f1 = f ; f0 = f }\n",
     "invalid document: line 7, col 1: in block 'm': block f is a hom; the "
     "source needs a crossed module"),
    (_TRACK + "track U n=2 f => A alpha [[0, 0], [1, 0], [0, 0], [0, 0]]\n",
     "invalid document: line 7, col 1: in block 'U': block A is a group; the "
     "target needs a hom of class-2 groups"),
    (_ONE_LETTER.replace("act = trivial", "act = N"),
     "invalid document: line 4, col 1: in block 'X': block N is a group; "
     "'act' needs a hom of class-2 groups"),
    (_FREE + "mor m : Y -> Y { f1 = del1 ; f0 = del1 }\n",
     "invalid document: line 9, col 1: in block 'm': block del1 is a hom "
     "into a free group; 'f1' needs a hom of class-2 groups"),
    (_FREE + "hom i : M1 -> M1 { x0 -> x0 }\n"
     "mor m : Y -> Y { f1 = i ; f0 = del1 }\n",
     "invalid document: line 10, col 1: in block 'm': 'f0' must go from the "
     "base of Y to the base of Y"),
    (_WEDGE + "cross Y n=1 { M = M ; N = N ; del = del ; act = trivial }\n"
     "hom i1 : M -> M { x0 -> x0 ; x1 -> x1 ; x2 -> x2 ; x3 -> x3 }\n"
     "hom i0 : N -> N { a -> a ; b -> b }\n"
     "mor m : W -> Y { f1 = i1 ; f0 = i0 }\n",
     "invalid document: line 8, col 1: in block 'm': a mor needs one level "
     "on both sides, not 2 and 1"),
    (_ONE_LETTER + "hom i : M -> M { x0 -> x0 }\n"
     "hom e : N -> N { a -> a }\n"
     "mor m : X -> X { f1 = e ; f0 = i }\n",
     "invalid document: line 7, col 1: in block 'm': 'f1' must go from the "
     "M of X to the M of X"),
    ("group G ab -1\n",
     "parse error: line 1, col 12: expected rank of at least 0, found '-1'"),
    (_ONE_LETTER.replace("n=1", "n=0"),
     "parse error: line 4, col 11: expected level of at least 1, found '0'"),
])
def test_malformed_document_is_a_positioned_error(text, message, tmp_path,
                                                  capsys):
    doc = tmp_path / "bad.sg"
    doc.write_text(text)
    assert main(["canon", str(doc)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
