"""Tests of the benchmark itself:

    python3 -m pytest perfbench/test_perfbench.py
"""

import ast
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import secgroups  # noqa: E402


def first_passes(workload, seed, count=3):
    stream = inputs.passes(workload, seed)
    return [next(stream) for _ in range(count)]


def test_same_seed_gives_identical_inputs():
    for workload in inputs.PASSES:
        assert first_passes(workload, 7) == first_passes(workload, 7)
        assert first_passes(workload, 7) != first_passes(workload, 8)


def test_every_pass_holds_every_cell_of_the_design():
    for cell_passes in first_passes("wedge-homotopy", 3):
        assert sorted(data for _, data in cell_passes) == sorted(
            cell for cell in inputs.WEDGE_CELLS
            for _ in range(inputs.WEDGE_REPEATS[cell]))
    for p in first_passes("coset-orders", 3):
        assert len(p) == 25 * inputs.WORDS_PER_CELL


def imported_modules(path):
    tree = ast.parse(path.read_text())
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    names |= {a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for a in node.names}
    return names


def test_generators_use_no_library_code():
    """Inputs come from the benchmark's own generators only."""
    assert not any(m.startswith("secgroups")
                   for m in imported_modules(HERE / "inputs.py"))
    for path in HERE.glob("*.py"):
        assert not any("selftest" in m for m in imported_modules(path)), path


def test_reference_loop_is_fixed_and_independent_of_the_library():
    assert not any(m.startswith("secgroups")
                   for m in imported_modules(HERE / "reference.py"))
    assert reference.reduce_rows() == reference.CHECKSUM
    speed = reference.HostSpeed()
    speed.sample(3)
    assert all(s > 0 for s in speed.slices)
    t0 = perf_counter()
    _, seconds, first, end = speed.time_op(
        lambda: [reference.time_slice() for _ in range(80)])
    wall = perf_counter() - t0
    assert end - first >= 1  # the timer took slices inside the op
    assert 0 < seconds <= wall - sum(speed.slices[first:end])
    speed.slices = [0.001] * 4 + [0.002] * 5 + [0.004] * 4
    assert speed.scale(4, 4) == reference.NOMINAL_S / 0.002
    assert speed.scale(0, 0) == reference.NOMINAL_S / 0.001
    assert speed.scale(4, 6) == reference.NOMINAL_S / 0.002
    assert speed.scale(11, 13) == reference.NOMINAL_S / 0.004
    assert speed.scale_last(3) == reference.NOMINAL_S / 0.004


def test_tracer_rebinds_every_binding_site_and_restores():
    orig = secgroups.coset.todd_coxeter
    tracer = tracing.Tracer()
    sites = {(getattr(obj, "__name__", ""), name)
             for obj, name, _, _ in tracer.patches}
    assert ("secgroups.crossed", "todd_coxeter") in sites
    assert ("secgroups.models", "hom_kernel") in sites
    assert ("secgroups", "wedge_model") in sites
    tracer.install()
    try:
        assert secgroups.crossed.todd_coxeter is not orig
        assert secgroups.coset.todd_coxeter is not orig
    finally:
        tracer.uninstall()
    assert secgroups.crossed.todd_coxeter is orig
    assert secgroups.coset.todd_coxeter is orig


def traced_counts(op_list):
    tracer = tracing.Tracer()
    plain, traced = run.run_paired(ops, op_list, tracer)
    assert [r[2:4] for r in plain] == [r[2:4] for r in traced]
    counts = {p: tracer.counts(p)[:2] for p in tracer.prefixes}
    return counts, len(tracer.snf.seen), tracer.snf.empty, tracer.snf.max_shape


def test_traced_counts_repeat_exactly():
    op_list = (first_passes("track-laws", 5, 1)[0]
               + first_passes("coset-orders", 5, 1)[0][:40]
               + [op for op in first_passes("module-invariants", 5, 1)[0]
                  if op[0] == "fiber"][:2])
    first = traced_counts(op_list)
    assert first == traced_counts(op_list)
    counts = first[0]
    assert counts["coset.todd_coxeter"][0] == 40
    assert counts["functors.six_term"][0] == 2


def test_refusals_are_not_failures():
    checker = ops.Checker()
    assert not checker.failed("coset", (2, 2, ()), "refused",
                              "EnumerationCapExceeded")
    assert checker.failed("coset", (2, 2, ()), "error", "ValueError()")
    assert checker.failed("wedge", (2, 2), "ok", ((), (2, ()), (2, ())))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    for metrics, _, _, _ in tracing.ROWS:
        assert set(metrics) <= per_layer
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "passed_ratio",
        "answered_ratio", "peak_rss_mb"]
