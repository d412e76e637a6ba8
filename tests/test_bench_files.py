"""Every `BENCH_*.json` at the root of the repository is a readable record
of a benchmark comparison, in the terms `BENCHMARK.json` defines."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("label", "claimed", "command", "workloads")


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


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
    sets = [record["workloads"]]
    if "earlier_set" in record:
        sets.append(record["earlier_set"]["workloads"])
    for runs in sets:
        assert runs and set(runs) <= workloads, sorted(set(runs) - workloads)
        for name, run in runs.items():
            unknown = set(run["metrics"]) - metrics
            assert not unknown, "%s: %s" % (name, sorted(unknown))
    traced = record.get("traced_seed_1", {}).get("workloads", {})
    assert set(traced) <= workloads, sorted(set(traced) - workloads)
