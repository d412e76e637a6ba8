"""No library object is left for the cyclic garbage collector.

Groups, elements, homs and the Smith certificates, solvers and kernels
they hold are freed by reference counting the moment their last user
drops them: no `secgroups` object sits in a reference cycle.  Each test
runs library code with the collector off and `gc.DEBUG_SAVEALL` set, then
collects once; every object the collector finds unreachable stays in
`gc.garbage`, and none of them may be of a `secgroups` type.  The code run
is the first pass of each benchmark workload, as `tests/test_traced_names.py`
runs it, and the seeded acceptance criteria 1 to 9.  perfbench is read,
never edited.
"""

import contextlib
import gc
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from secgroups import selftest
from secgroups.abelian import FinAbGroup
from secgroups.nil2 import abelian_as_class2

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
import ops  # noqa: E402


@contextlib.contextmanager
def _cyclic_garbage():
    """Run the body with the collector off, then collect once; the Counter
    yielded is filled, by type name, with the `secgroups` objects that
    only the cyclic collector could free."""
    gc.collect()
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    found = Counter()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.update(type(x).__name__ for x in gc.garbage[kept:]
                     if type(x).__module__.startswith("secgroups"))
    finally:
        del gc.garbage[kept:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_a_group_in_a_cycle_is_reported():
    with _cyclic_garbage() as found:
        g = abelian_as_class2(FinAbGroup(2, [[2, 0]]))
        g.itself = g
        del g
    assert found["Class2Group"] == 1
    assert found["FinAbGroup"] == 2  # its Q and C layers, held by it


@pytest.mark.parametrize("workload", sorted(inputs.PASSES))
def test_first_pass_leaves_no_cyclic_garbage(workload):
    first = next(inputs.passes(workload, 1))
    with _cyclic_garbage() as found:
        statuses = [ops.run_op(kind, data) for kind, data in first]
        errors = [answer for status, answer in statuses if status == "error"]
        del statuses
    assert not errors, errors[:3]
    assert not found, dict(found)


SEEDED = {fn for _, fn, seeded in selftest.CRITERIA if seeded}


@pytest.mark.parametrize("k", range(1, 10))
def test_criterion_leaves_no_cyclic_garbage(k):
    crit = getattr(selftest, "crit_%d" % k)
    with _cyclic_garbage() as found:
        subs = crit(random.Random(0)) if crit in SEEDED else crit()
        del subs
    assert not found, dict(found)
