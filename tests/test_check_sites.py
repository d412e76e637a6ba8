"""Where the checks run: input is checked where it enters, and the objects
the library derives from valid input are built unchecked.

The five checks counted here are those of class-2 homs, omega pairings,
morphisms, class-2 groups and 2-morphisms.  `six_term` after `fiber` on a
crit-5 morphism, building a wedge model, the homotopy groups of one and
the interchange law from level two up run none of them; a level-1
square still runs its checks, a 2-morphism built through the public
constructor checks its companion, and a document with a broken hom or
morphism still fails its check, with the error positioned at its block.
The tests that hold the derived objects to their checks are named in the
docstrings of `nil2`, `crossed`, `functors`, `tracks` and
`models.wedge_model`.
"""

import importlib.resources
import random

import pytest

from secgroups.crossed import CrossMorphism, OmegaPairing
from secgroups.functors import fiber, six_term
from secgroups.models import homotopy_groups, wedge_model
from secgroups.nil2 import Class2Group, Class2Hom, identity_hom
from secgroups.selftest import (_conjugation_module, _induced_wedge_morphism,
                                _points, _rand_group_elem,
                                _random_quotient_wedge)
from secgroups.serialization import ValidationError, parse
from secgroups.tracks import TwoMorphism, interchange_holds

from squares import heisenberg_square, wedge_square

CORPUS = importlib.resources.files("secgroups") / "corpus"
CHECKS = ((Class2Hom, "validate"), (OmegaPairing, "validate"),
          (CrossMorphism, "validate"), (Class2Group, "_validate"),
          (TwoMorphism, "validate"))
DERIVATION_CHECKS = ("TwoMorphism.validate", "CrossMorphism.validate",
                     "Class2Hom.validate")


@pytest.fixture
def check_calls(monkeypatch):
    """Calls to each of the five checks, by "Class.method", from here on."""
    counts = {}
    for cls, name in CHECKS:
        key = "%s.%s" % (cls.__name__, name)
        counts[key] = 0

        def counting(self, _key=key, _check=getattr(cls, name)):
            counts[_key] += 1
            return _check(self)

        monkeypatch.setattr(cls, name, counting)
    return counts


def _crit5_morphism(seed):
    """A random level-2 morphism drawn as the fiber criterion draws them."""
    rng = random.Random(seed)
    x = wedge_model(2, _points(rng.randint(1, 2)))
    y = _random_quotient_wedge(rng, 2, _points(rng.randint(1, 2)))
    return _induced_wedge_morphism(rng, x, y)


def test_six_term_after_fiber_runs_no_check(check_calls):
    for seed in range(6):
        f = _crit5_morphism(seed)
        fiber(f)
        check_calls.update(dict.fromkeys(check_calls, 0))
        assert six_term(f)["exact"]
        assert not any(check_calls.values()), check_calls


@pytest.mark.parametrize("n", [2, 3])
def test_homotopy_groups_of_a_wedge_run_no_check(n, check_calls):
    w = wedge_model(n, _points(3))
    check_calls.update(dict.fromkeys(check_calls, 0))
    homotopy_groups(w)
    assert not any(check_calls.values()), check_calls


@pytest.mark.parametrize("n", [2, 3])
def test_a_wedge_model_runs_no_check(n, check_calls):
    """The level-2 identity pairing is valid by construction, as the
    stable pairing above it is: neither is checked
    (`tests/test_models.py::test_wedge_pairings_pass_their_check`)."""
    for k in range(1, 4):
        wedge_model(n, _points(k))
    assert not any(check_calls.values()), check_calls


def _crossed_square(rng):
    """A square of 2-morphisms of a level-1 crossed module, as the
    crossed_square benchmark op builds it."""
    cm = _conjugation_module(_points(2))
    ident = CrossMorphism(cm, cm, identity_hom(cm.m), identity_hom(cm.base),
                          check=False)
    a1 = TwoMorphism(ident, [_rand_group_elem(rng, cm.m) for _ in range(2)],
                     check=False)
    a2 = TwoMorphism(a1.g, [_rand_group_elem(rng, cm.m) for _ in range(2)],
                     check=False)
    return a1, a2


def test_interchange_from_level_2_runs_no_check(check_calls):
    """The composites of both pastings, and their companions, are built
    unchecked on the wedge squares of crit 4 and the quad_square
    benchmark op, and on squares into a module with nontrivial W_ij
    (`tests/test_tracks.py` holds them to their checks)."""
    rng = random.Random(33)
    squares = ([wedge_square(rng) for _ in range(3)]
               + [heisenberg_square(rng, 2) for _ in range(3)])
    check_calls.update(dict.fromkeys(check_calls, 0))
    for alpha, alpha2 in squares:
        assert interchange_holds(alpha, alpha2)
    assert not any(check_calls.values()), check_calls


def test_interchange_on_a_crossed_square_still_checks(check_calls):
    """At level one the composites and their companions are still
    checked: that half of ROADMAP item 4 waits on the benchmark."""
    a1, a2 = _crossed_square(random.Random(34))
    check_calls.update(dict.fromkeys(check_calls, 0))
    assert interchange_holds(a1, a2)
    assert all(check_calls[key] for key in DERIVATION_CHECKS), check_calls


@pytest.mark.parametrize("level", [1, 2])
def test_a_checked_two_morphism_checks_its_companion(level, check_calls):
    """Input to the public constructor is checked with its companion's
    maps, on the closed form as on the letter rule."""
    rng = random.Random(35)
    alpha = (_crossed_square(rng)[0] if level == 1
             else heisenberg_square(rng, 2)[1])
    check_calls.update(dict.fromkeys(check_calls, 0))
    TwoMorphism(alpha.f, alpha.values)
    assert all(check_calls[key] for key in DERIVATION_CHECKS), check_calls


@pytest.mark.parametrize("name, old, new, check, message", [
    ("crossed_level1.sg", "x0 -> x0^2", "x0 -> x0", "Class2Hom.validate",
     "line 7, col 1: in block 'del2': hom disagrees on relation "
     "representatives"),
    ("morphism.sg", "x1 -> x0^2 ;", "x1 -> x0^3 ;", "CrossMorphism.validate",
     "line 11, col 1: in block 'm': morphism breaks omega at (0,1)"),
])
def test_a_broken_document_still_fails_its_check(name, old, new, check,
                                                 message, check_calls):
    text = (CORPUS / name).read_text()
    assert text.count(old) == 1
    parse(text)
    with pytest.raises(ValidationError) as exc:
        parse(text.replace(old, new))
    assert str(exc.value) == message
    assert check_calls[check]
