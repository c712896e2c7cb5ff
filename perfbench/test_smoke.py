"""Smoke test of the benchmark at toy sizes; takes a few seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
import tracer

TOY_SIZES = {"exhaustive-exact": (5, None), "fasta-splits": (6, 20_000),
             "score-all": (6, None), "fit-wide": (6, None)}
TOY = {name: dataclasses.replace(run.WORKLOADS[name], leaves=leaves,
                                 sites=sites)
       for name, (leaves, sites) in TOY_SIZES.items()}


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _measure(wl, inputs, traced, min_solves=1):
    return run.measure(wl, inputs, 0.0, traced, time.perf_counter() + 120,
                       setup_reps=1, min_solves=min_solves)


@pytest.mark.parametrize("name", list(TOY))
def test_toy_workload_is_correct_and_fully_reported(name, workdir):
    spec = run.load_spec()
    wl = TOY[name]
    inputs = run.prepare_inputs(wl, 1, workdir)
    assert len(inputs.sha256) == 64

    plain = _measure(wl, inputs, traced=False)
    assert plain.failed == 0
    e2e = plain.end_to_end()
    assert set(e2e) == set(spec["end_to_end"])
    assert all(value > 0 for value, _ in e2e.values())

    traced = _measure(wl, inputs, traced=True)
    assert traced.failed == 0
    layers = traced.per_layer(spec["per_layer"])
    assert set(layers) == set(spec["per_layer"])
    self_sum = sum(layers[m][0] for m in tracer.SELF_TIME_METRICS.values())
    traced_s = sorted(s.seconds for s in traced.traced)[len(traced.traced) // 2]
    overhead = layers["trace.overhead_s"][0]
    assert abs(self_sum - traced_s) <= abs(overhead) + 1e-6
    if name == "exhaustive-exact":
        assert layers["trees.topologies"][0] == 15      # (2n-5)!! at 5 leaves
        assert layers["scores.split_score_calls"][0] == 15 * 2
    if name == "fasta-splits":
        assert layers["simulate.sites_per_s"][0] > 0


def test_wrong_answer_counts_as_failed(workdir):
    wl = TOY["exhaustive-exact"]
    inputs = run.prepare_inputs(wl, 1, workdir)
    assert inputs.truth == {frozenset({3, 4, 5}), frozenset({4, 5})}
    # the caterpillar with leaves 2 and 3 swapped: the program's answer is
    # now wrong for one of its two splits
    inputs.truth = {frozenset({2, 4, 5}), frozenset({4, 5})}
    result = _measure(wl, inputs, traced=False, min_solves=2)
    assert result.failed == len(result.all_samples) == 2
    assert all("not the generating topology" in s.error
               for s in result.all_samples)


def test_checks_read_reports():
    truth = {frozenset({3, 4, 5}), frozenset({4, 5})}
    assert run.newick_splits("((1,2),(3,(4,5)));", 5) == truth
    assert run.split_side("1,3|2,4,5") == frozenset({2, 4, 5})
    assert run.split_side("2,4,5|1,3") == frozenset({2, 4, 5})

    inputs = run.Inputs(Path("unused"), "", "K81", 5, None, truth, {})
    scores = {"1,2|3,4,5": 1e-16, "1,2,3|4,5": 2e-16, "1,3|2,4,5": 4e-2}
    report = {"bipartitions": [{"split": k, "score": v}
                               for k, v in scores.items()]}
    assert run.check_lowest_splits(report, inputs) is None
    scores["1,2,3|4,5"] = 1e-7
    report = {"bipartitions": [{"split": k, "score": v}
                               for k, v in scores.items()]}
    assert "interior split scores" in run.check_lowest_splits(report, inputs)

    assert run.check_fit({"fit_scores": {"JC69": 5e-2, "K81": 1e-16}},
                         inputs) is None
    assert run.check_fit({"fit_scores": {"JC69": 1e-3, "K81": 1e-16}},
                         inputs) is not None


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
