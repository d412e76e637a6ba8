"""Where the checks run: input is checked where it enters, and the objects
the library derives from valid input are built unchecked.

The four checks counted here are those of class-2 homs, omega pairings,
morphisms and class-2 groups.  `six_term` after `fiber` on a crit-5
morphism, building a wedge model and the homotopy groups of one run none
of them; a document with a broken hom or morphism still fails its check,
with the error positioned at its block.  The tests that hold the derived
objects to their checks are named in the docstrings of `nil2`, `crossed`,
`functors` and `models.wedge_model`.
"""

import importlib.resources
import random

import pytest

from secgroups.crossed import CrossMorphism, OmegaPairing
from secgroups.functors import fiber, six_term
from secgroups.models import homotopy_groups, wedge_model
from secgroups.nil2 import Class2Group, Class2Hom
from secgroups.selftest import (_induced_wedge_morphism, _points,
                                _random_quotient_wedge)
from secgroups.serialization import ValidationError, parse

CORPUS = importlib.resources.files("secgroups") / "corpus"
CHECKS = ((Class2Hom, "validate"), (OmegaPairing, "validate"),
          (CrossMorphism, "validate"), (Class2Group, "_validate"))


@pytest.fixture
def check_calls(monkeypatch):
    """Calls to each of the four checks, by "Class.method", from here on."""
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
