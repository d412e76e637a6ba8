"""Every `BENCH_*.json` at the root of the repository is a readable record
of a benchmark comparison, in the terms `BENCHMARK.json` defines."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("label", "claimed", "command", "workloads")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _benchmark():
    spec = _spec()
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


def _paired_sets(record):
    """The paired runs, and an earlier set of them if the file has one."""
    sets = [record["workloads"]]
    if "earlier_set" in record:
        sets.append(record["earlier_set"]["workloads"])
    return sets


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_defined_workloads_and_metrics(path):
    workloads, metrics = _benchmark()
    record = json.loads(path.read_text())
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, "%s lacks %s" % (path.name, missing)
    claimed = record["claimed"]
    if claimed is not None:
        assert claimed["workload"] in workloads
        assert claimed["metric"] in metrics
    # the paired runs, and an earlier set of them, report end-to-end
    # metrics; the traced runs report per-layer counts under workloads too
    for runs in _paired_sets(record):
        assert runs and set(runs) <= workloads, sorted(set(runs) - workloads)
        for name, run in runs.items():
            unknown = set(run["metrics"]) - metrics
            assert not unknown, "%s: %s" % (name, sorted(unknown))
    traced = record.get("traced_seed_1", {}).get("workloads", {})
    assert set(traced) <= workloads, sorted(set(traced) - workloads)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_traced_names_and_run_counts(path):
    """A traced count is named as a per-layer row of `BENCHMARK.json` (or
    is the run's `correct`), and every paired metric has one parent run
    and one change run per seed."""
    per_layer = {m["name"] for m in _spec()["per_layer"]} | {"correct"}
    record = json.loads(path.read_text())
    traced = record.get("traced_seed_1", {}).get("workloads", {})
    for name, sides in traced.items():
        for side, counts in sides.items():
            unknown = set(counts) - per_layer
            assert not unknown, "%s %s: %s" % (name, side, sorted(unknown))
    for runs in _paired_sets(record):
        for name, run in runs.items():
            seeds = run["seeds"]
            for metric, values in run["metrics"].items():
                for side in ("parent_runs", "change_runs"):
                    assert len(values[side]) == len(seeds), (
                        "%s %s %s: %d runs for %d seeds"
                        % (name, metric, side, len(values[side]),
                           len(seeds)))
