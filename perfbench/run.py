"""The secgroups benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one client, a closed loop:
each op (one user-level query, as one `secgroups` command computes it)
starts when the previous one has returned, and is timed from the call to
its return.  Input generation and answer checking lie outside that timing.

--trace 0 runs whole passes of the workload until S seconds have been
spent in ops and at least MIN_OPS ops are done, checks every answer and
prints the end-to-end metrics.  Times are scaled to a nominal host speed
by slices of a fixed reference loop timed between the ops (see
reference.py), because the shared host's own speed drifts.  --trace 1
runs each op of the first TRACE_PASSES passes twice, untraced and traced,
checks that both give the same answers, and prints the per-layer metrics
with the tracing overhead (in wall time, not scaled).
The last line of standard output is the JSON result; metric names and
units come from BENCHMARK.json.  See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracing
from reference import WINDOW, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# set-up is timed once at start and once between passes, up to this many
SETUP_SAMPLES = 15
# p90 is the value at index floor(0.9 N) of the sorted latencies; with
# N >= 110 at least ten ops lie beyond it.
MIN_OPS = 110
# a reference slice follows an op once this much op time has passed since
# the last slice
SLICE_EVERY_S = 0.02
# reference slices timed before and after each set-up
SETUP_SLICES = 5
TRACE_PASSES = {"wedge-homotopy": 2, "module-invariants": 2,
                "track-laws": 4, "coset-orders": 1}


def quantile(sorted_values, q):
    return sorted_values[int(q * len(sorted_values))]


def library_modules():
    return {name: m for name, m in sys.modules.items()
            if name == "secgroups" or name.startswith("secgroups.")}


def set_up(workload, seed):
    """Import secgroups from scratch and generate the first pass of inputs.
    Returns (seconds, pass stream, first pass)."""
    for name in library_modules():
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("secgroups")
    stream = inputs.passes(workload, seed)
    first = next(stream)
    return perf_counter() - t0, stream, first


def set_up_again(workload, seed, speed):
    """Time one more set-up, scaled, then restore the modules the ops
    use."""
    saved = library_modules()
    speed.sample(SETUP_SLICES)
    seconds, _, _ = set_up(workload, seed)
    speed.sample(SETUP_SLICES)
    for name in library_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds * speed.scale_last(2 * SETUP_SLICES)


def run_ops(ops, op_list):
    """[(kind, data, status, answer, seconds)] for the ops, in order."""
    records = []
    for kind, data in op_list:
        t0 = perf_counter()
        status, answer = ops.run_op(kind, data)
        records.append((kind, data, status, answer, perf_counter() - t0))
    return records


def run_paired(ops, op_list, tracer):
    """Each op twice, untraced and traced, the first alternating between
    the two so that warm-up favours neither.  Returns both record lists."""
    plain, traced = [], []
    for i, op in enumerate(op_list):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain += run_ops(ops, [op])
                continue
            tracer.begin_op(op[0])
            tracer.install()
            try:
                traced += run_ops(ops, [op])
            finally:
                tracer.uninstall()
    return plain, traced


def judge(ops, records):
    """(failed, refused) counts; failures are also shown on stderr."""
    checker = ops.Checker()
    failed = refused = 0
    for kind, data, status, answer, _ in records:
        refused += status == "refused"
        if checker.failed(kind, data, status, answer):
            failed += 1
            if failed <= 5:
                print("FAILED %s %r: %s %r" % (kind, data, status, answer),
                      file=sys.stderr)
    return failed, refused


def timed_run(args, ops, stream, first, speed, setup_times):
    """Whole passes until args.seconds are spent in ops and MIN_OPS ops are
    done.  Between passes, outside the op timing, one more set-up is timed
    (up to SETUP_SAMPLES), so that set-up samples spread over the run.
    Returns the records with each op's time scaled to the nominal host
    speed, the wall seconds spent in ops and the peak RSS."""
    gc.collect()
    records, marks = [], []
    busy = since_slice = 0.0
    speed.sample(WINDOW // 2)
    batch = first
    while True:
        for kind, data in batch:
            (status, answer), seconds, lo, hi = speed.time_op(
                ops.run_op, kind, data)
            records.append((kind, data, status, answer, seconds))
            marks.append((lo, hi))
            busy += seconds
            since_slice += seconds
            if since_slice >= SLICE_EVERY_S:
                speed.sample()
                since_slice = 0.0
        if busy >= args.seconds and len(records) >= MIN_OPS:
            break
        if len(setup_times) < SETUP_SAMPLES:
            setup_times.append(set_up_again(args.workload, args.seed, speed))
        batch = next(stream)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.sample(WINDOW // 2 + 1)
    scaled = [r[:4] + (r[4] * speed.scale(lo, hi),)
              for r, (lo, hi) in zip(records, marks)]
    return scaled, busy, peak_rss_mb


def end_to_end(args, ops, stream, first, setup_s, speed):
    setup_times = [setup_s]
    records, busy, peak_rss_mb = timed_run(args, ops, stream, first, speed,
                                           setup_times)
    failed, refused = judge(ops, records)
    n = len(records)
    lat = sorted(r[4] for r in records)
    scaled_busy = sum(lat)
    p90_index = int(0.9 * n)
    print("%s seed %d: %d ops in %.3f s (%.3f s scaled), %d beyond p90, "
          "failed %d, refused %d (failed_ratio %.4f, refused_ratio %.4f), "
          "%d set-ups, %d reference slices"
          % (args.workload, args.seed, n, busy, scaled_busy,
             n - 1 - p90_index, failed, refused, failed / n, refused / n,
             len(setup_times), len(speed.slices)))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / scaled_busy,
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": quantile(lat, 0.9) * 1e3,
        "passed_ratio": 1 - failed / n,
        "answered_ratio": 1 - refused / n,
        "peak_rss_mb": peak_rss_mb,
    }
    return failed == 0, n, failed, metrics


def per_layer(args, ops, stream, first):
    op_list = list(first)
    for _ in range(TRACE_PASSES[args.workload] - 1):
        op_list += next(stream)
    tracer = tracing.Tracer()
    gc.collect()
    plain, traced = run_paired(ops, op_list, tracer)
    failed, refused = judge(ops, traced)
    problems = []
    if [r[2:4] for r in plain] != [r[2:4] for r in traced]:
        problems.append("traced and untraced answers differ")
    for prefix in tracing.expected_calls(args.workload):
        if tracer.counts(prefix)[0] == 0:
            problems.append("%s recorded no calls" % prefix)
    tc_refused = tracer.counts("coset.todd_coxeter")[1]
    if args.workload == tracing.COSET and tc_refused != refused:
        problems.append("%d refused ops but %d refused enumerations"
                        % (refused, tc_refused))
    for p in problems:
        print("TRACE CHECK FAILED: %s" % p, file=sys.stderr)

    n = len(traced)
    untraced_s = sum(r[4] for r in plain)
    traced_s = sum(r[4] for r in traced)
    metrics = tracer.metrics()
    metrics.update({
        "ops.failed_ratio": failed / n,
        "ops.refused_ratio": refused / n,
        "trace.ops": n,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1,
    })
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
    tracer.write_spans(spans)
    report(args.workload, tracer, metrics, spans)
    return failed == 0 and not problems, n, failed, metrics


def report(workload, tracer, metrics, spans):
    print("traced %s: %d ops, untraced %.3f s, traced %.3f s, tracing "
          "overhead %.1f%%; %d spans in %s"
          % (workload, metrics["trace.ops"], metrics["trace.untraced_s"],
             metrics["trace.traced_s"], 100 * metrics["trace.overhead_ratio"],
             metrics["trace.spans"], spans.relative_to(ROOT)))
    for names, moves, on, unchanged in tracing.ROWS:
        for name in names:
            print("  %-48s %14.6g   moves %s on %s; unchanged on %s"
                  % (name, metrics[name], moves, ", ".join(on),
                     ", ".join(unchanged)))
    print("  SNF inputs by op kind (calls, distinct, empty, largest shape):")
    for kind, (calls, empty, seen, shape) in sorted(
            tracer.snf.by_kind.items()):
        ops_of_kind = tracer.op_kinds.count(kind)
        print("    %-15s %4d ops %8d calls %6d distinct %7d empty  "
              "largest %dx%d" % (kind, ops_of_kind, calls, len(seen), empty,
                                 shape[0], shape[1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "secgroups" / "__init__.py").is_file():
        print("error: no secgroups sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    speed = HostSpeed()
    speed.sample(SETUP_SLICES)
    setup_s, stream, first = set_up(args.workload, args.seed)
    speed.sample(SETUP_SLICES)
    setup_s *= speed.scale_last(2 * SETUP_SLICES)
    import ops  # imports secgroups, so only once src/ is on the path

    if args.trace:
        correct, n, failed, measured = per_layer(args, ops, stream, first)
        wanted = spec["per_layer"]
    else:
        correct, n, failed, measured = end_to_end(args, ops, stream, first,
                                                  setup_s, speed)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
