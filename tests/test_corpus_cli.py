"""Golden outputs of the command line over the whole corpus.

Every command below runs `cli.main` in-process and records its stdout,
stderr and exit code.  The golden file `tests/data/corpus_cli.json` holds
the recorded outputs; a refactor that keeps the library's answers keeps
every one of them byte-identical.  To rewrite the golden file after an
intended change of output, run

    PYTHONPATH=src python tests/test_corpus_cli.py

and review the diff of `tests/data/corpus_cli.json`.

The commands are:

- per block of every `corpus/*.sg`: check, h0, h1, homotopy-groups, fiber,
  six-term, k-invariant, phi 1-3, ad 2 and ad 3;
- per ordered pair of blocks of one document: paste and adjoint-check 2
  and 3;
- canon of every document;
- wedge at levels 1-3 on 1-4 letters, and suspend-compare on 1-3 letters.
"""

import contextlib
import importlib.resources
import io
import json
import pathlib

from secgroups import cli
from secgroups.serialization import parse

CORPUS = importlib.resources.files("secgroups") / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "data" / "corpus_cli.json"
LETTERS = ["a", "b", "c", "d"]

_PER_BLOCK = [["check"], ["h0"], ["h1"], ["homotopy-groups"], ["fiber"],
              ["six-term"], ["k-invariant"], ["phi", "1"], ["phi", "2"],
              ["phi", "3"], ["ad", "2"], ["ad", "3"]]
_PER_PAIR = [["paste"], ["adjoint-check", "2"], ["adjoint-check", "3"]]


def commands():
    """The argv of every command, with documents named by file name."""
    out = []
    for doc in sorted(p.name for p in CORPUS.iterdir()
                      if p.name.endswith(".sg")):
        names = list(parse((CORPUS / doc).read_text()).blocks)
        for head in _PER_BLOCK:
            out += [head + [doc, name] for name in names]
        for head in _PER_PAIR:
            out += [head + [doc, x, y] for x in names for y in names]
        out.append(["canon", doc])
    for level in (1, 2, 3):
        for k in range(1, 5):
            out.append(["wedge", str(level)] + LETTERS[:k])
    for k in range(1, 4):
        out.append(["suspend-compare"] + LETTERS[:k])
    return out


def run(argv):
    """Run one command; return its exit code, stdout and stderr."""
    real = [str(CORPUS / a) if a.endswith(".sg") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_corpus_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    argvs = commands()
    assert [g["argv"] for g in golden] == argvs
    differing = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert differing == []


if __name__ == "__main__":
    records = [run(argv) for argv in commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
    print("wrote %d records to %s" % (len(records), GOLDEN))
