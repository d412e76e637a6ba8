"""The library functions the traced benchmark run requires calls at.

`perfbench/run.py --trace 1` fails a workload when a name of
`tracing.expected_calls(workload)` records no call.  This runs the first
pass of each workload under `tracing.Tracer`, as that run does, so that
moving a call away from a named function fails here and not only in a
traced run by hand.  perfbench is read, never edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.PASSES))
def test_first_pass_calls_every_name_the_traced_run_expects(workload):
    first = next(inputs.passes(workload, 1))
    tracer = tracing.Tracer()
    statuses = []
    try:
        tracer.install()
        for kind, data in first:
            tracer.begin_op(kind)
            statuses.append(ops.run_op(kind, data))
    finally:
        tracer.uninstall()
    errors = [answer for status, answer in statuses if status == "error"]
    assert not errors, errors[:3]
    silent = [prefix for prefix in tracing.expected_calls(workload)
              if tracer.counts(prefix)[0] == 0]
    assert not silent, "%s recorded no calls on %s" % (silent, workload)
