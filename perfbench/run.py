#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the edgeinv command line.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  For each workload the inputs are
simulated from ``--seed`` in a separate process, then every set-up and every
solve runs in a fresh child process, one child at a time.  Untraced solves
repeat until ``--seconds`` have passed; each is checked for a correct answer.
Set-up and solve times are scaled to the baseline machine's speed by a probe
timed around each of them (see ``steady``).
``--trace 1`` alternates untraced and traced solves and reports per-layer
self times and counts instead of the end-to-end metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 7
PROBE_NOMINAL_S = 0.0025  # child.probe() reference: ~its median on the baseline
MIN_SOLVES = 3
RUN_DEADLINE_S = 165.0   # a run must end within 180 s
BLAS_THREADS = 1         # single-threaded BLAS keeps timings steady on a shared box

SCORE_TOL = 1e-8         # score-all: edge splits score at most this, others more
FIT_EXACT_TOL = 1e-12    # fit-wide: the generating model fits exactly
FIT_MISFIT_MIN = 1e-2    # fit-wide: a larger symmetry group misfits clearly


# ---------------------------------------------------------------------------
# Correctness checks: each returns None or what was wrong
# ---------------------------------------------------------------------------

def newick_splits(text: str, n: int) -> set[frozenset[int]]:
    """Nontrivial splits of a Newick tree on leaves 1..n, each given as its
    side without leaf 1."""
    leaves = frozenset(range(1, n + 1))
    splits: set[frozenset[int]] = set()
    stack: list[set[int]] = [set()]
    for token in re.findall(r"[(),]|[^(),;\s]+", text):
        if token == "(":
            stack.append(set())
        elif token == ")":
            clade = frozenset(stack.pop())
            stack[-1] |= clade
            if 2 <= len(clade) <= n - 2:
                splits.add(clade if 1 not in clade else leaves - clade)
        elif token != ",":
            stack[-1].add(int(token))
    return splits


def split_side(text: str) -> frozenset[int]:
    """The side without leaf 1 of a report's "1,2|3,4" split."""
    left, _, right = text.partition("|")
    a = frozenset(int(x) for x in left.split(","))
    return frozenset(int(x) for x in right.split(",")) if 1 in a else a


def check_tree(report: dict, inputs: "Inputs") -> Optional[str]:
    tree = report.get("tree")
    if tree is None:
        return "the report has no tree"
    if newick_splits(tree, inputs.leaves) != inputs.truth:
        return f"tree {tree} is not the generating topology"
    return None


def check_lowest_splits(report: dict, inputs: "Inputs") -> Optional[str]:
    scored = sorted(((b["score"], split_side(b["split"]))
                     for b in report["bipartitions"]), key=lambda p: p[0])
    k = len(inputs.truth)
    lowest = scored[:k]
    if {side for _, side in lowest} != inputs.truth:
        return "the lowest scores are not the tree's interior splits"
    if lowest[-1][0] > SCORE_TOL:
        return f"an interior split scores {lowest[-1][0]:.3g} > {SCORE_TOL:g}"
    if len(scored) > k and scored[k][0] <= SCORE_TOL:
        return f"a non-edge split scores {scored[k][0]:.3g} <= {SCORE_TOL:g}"
    return None


def check_fit(report: dict, inputs: "Inputs") -> Optional[str]:
    for name, score in report["fit_scores"].items():
        if name == inputs.model and not score <= FIT_EXACT_TOL:
            return f"generating model {name} fits at {score:.3g}"
        if name != inputs.model and not score > FIT_MISFIT_MIN:
            return f"model {name} fits at {score:.3g}, expected a misfit"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    """A CLI command on one simulated input.  ``sites=None`` writes the exact
    tensor in the binary container; otherwise a FASTA alignment of that many
    sites.  "{input}" in ``argv`` stands for the input path."""

    name: str
    model: str
    leaves: int
    sites: Optional[int]
    argv: tuple[str, ...]
    setup_models: tuple[str, ...]
    check: Callable[[dict, "Inputs"], Optional[str]]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("exhaustive-exact", "JC69", 6, None,
                 ("reconstruct", "--model", "JC69", "--input", "{input}",
                  "--method", "exhaustive"), ("JC69",), check_tree),
        Workload("fasta-splits", "K81", 8, 100_000,
                 ("reconstruct", "--model", "K81", "--input", "{input}",
                  "--method", "splits"), ("K81",), check_tree),
        Workload("score-all", "K80", 8, None,
                 ("score", "--model", "K80", "--input", "{input}",
                  "--all-splits"), ("K80",), check_lowest_splits),
        Workload("fit-wide", "K81", 9, None,
                 ("fit", "--models", "JC69,K81", "--input", "{input}"),
                 ("JC69", "K81"), check_fit),
    )
}


@dataclasses.dataclass
class Inputs:
    path: Path
    sha256: str
    model: str
    leaves: int
    sites: Optional[int]
    truth: set[frozenset[int]]
    machine: dict


@dataclasses.dataclass
class Sample:
    """One solve: ``error`` is None when it ran, exited 0 or 2 and passed the
    workload's check."""

    wall_s: float
    solve_s: Optional[float] = None
    probe_s: Optional[float] = None
    rss_mb: Optional[float] = None
    exit: Optional[int] = None
    error: Optional[str] = None
    trace: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.solve_s if self.solve_s is not None else self.wall_s

    @property
    def steady_s(self) -> float:
        """``seconds`` at the machine speed of the baseline."""
        return steady(self.seconds, self.probe_s)


def steady(seconds: float, probe_s: Optional[float]) -> float:
    """Scale a time measured on a shared machine to the baseline's speed, by
    how much longer or shorter than on the baseline a fixed probe took just
    before and after the timed step (see child.Speedometer)."""
    return seconds * PROBE_NOMINAL_S / probe_s if probe_s else seconds


class BenchError(RuntimeError):
    """The benchmark itself could not run: no inputs, or set-up failed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], timeout: float):
    """Run child.py; returns (its last-line JSON or None, stderr, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return result, proc.stderr, wall


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def prepare_inputs(wl: Workload, seed: int, workdir: Path) -> Inputs:
    suffix = ".eqpt" if wl.sites is None else ".fasta"
    path = workdir / f"{wl.name}-seed{seed}{suffix}"
    spec = {"model": wl.model, "leaves": wl.leaves, "sites": wl.sites,
            "seed": seed, "path": str(path)}
    result, stderr, _ = run_child(["gen", json.dumps(spec)], RUN_DEADLINE_S)
    if result is None:
        raise BenchError(f"input generation failed:\n{stderr}")
    package = Path(result["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchError(f"edgeinv was imported from {package}, not {SRC}")
    return Inputs(path, sha256(path), wl.model, wl.leaves, wl.sites,
                  {frozenset(side) for side in result["truth"]},
                  result["machine"])


def time_setup(wl: Workload, timeout: float) -> tuple[float, float]:
    """(set-up seconds, median probe seconds) of one fresh process."""
    result, stderr, _ = run_child(["setup", json.dumps(list(wl.setup_models))],
                                  timeout)
    if result is None:
        raise BenchError(f"set-up failed:\n{stderr}")
    return result["setup_s"], result["probe_s"]


def solve(wl: Workload, inputs: Inputs, traced: bool, timeout: float) -> Sample:
    argv = [a.replace("{input}", str(inputs.path)) for a in wl.argv]
    start = time.perf_counter()
    try:
        result, stderr, wall = run_child(
            ["solve", "1" if traced else "0", json.dumps(argv)], timeout)
    except subprocess.TimeoutExpired:
        return Sample(time.perf_counter() - start, error="timed out")
    if result is None:
        return Sample(wall, error=f"child died: {stderr.strip()[-300:]}")
    sample = Sample(wall, result["solve_s"], result["probe_s"],
                    result["maxrss_kb"] / 1024, result["exit"],
                    trace=result["trace"])
    if result["raised"]:
        sample.error = f"raised {result['raised'].strip()[-300:]}"
    elif sample.exit not in (0, 2):
        sample.error = f"exit {sample.exit}: {stderr.strip()[-300:]}"
    else:
        try:
            sample.error = wl.check(json.loads(result["stdout"]), inputs)
        except (AttributeError, LookupError, TypeError, ValueError) as err:
            sample.error = f"unreadable report: {err!r}"
    return sample


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Result:
    workload: str
    inputs: Inputs
    samples: list[Sample]
    traced: list[Sample]
    setups: list[tuple[float, float]]

    @property
    def all_samples(self) -> list[Sample]:
        return self.samples + self.traced

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.all_samples)

    @property
    def warned(self) -> int:
        return sum(s.exit == 2 for s in self.all_samples)

    def end_to_end(self) -> dict:
        rss = [s.rss_mb for s in self.samples if s.rss_mb is not None]
        return {
            "solve_s": (statistics.median(s.steady_s for s in self.samples),
                        "s"),
            "setup_s": (statistics.median(steady(*pair)
                                          for pair in self.setups), "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MiB"),
        }

    def per_layer(self, units: dict) -> dict:
        """The traced solve with the median solve time, plus run-level
        ratios.  Its self times add up to its solve_s."""
        traced = [s for s in self.traced if s.trace is not None]
        profile = {}
        traced_s = 0.0
        if traced:
            middle = sorted(traced, key=lambda s: s.seconds)[len(traced) // 2]
            profile, traced_s = dict(middle.trace), middle.seconds
        read_s = profile.get("simulate.read_fasta_s", 0.0)
        profile["simulate.sites_per_s"] = (
            self.inputs.sites / read_s if self.inputs.sites and read_s else 0.0)
        profile["cli.warned_frac"] = self.warned / len(self.all_samples)
        untraced = statistics.median(s.seconds for s in self.samples)
        profile["trace.overhead_s"] = traced_s - untraced
        return {name: (profile.get(name, 0.0), unit)
                for name, unit in units.items()}


def measure(wl: Workload, inputs: Inputs, seconds: float, traced: bool,
            deadline: float, setup_reps: int = SETUP_REPS,
            min_solves: int = MIN_SOLVES) -> Result:
    """Set up ``setup_reps`` times (untraced runs only), then solve until
    ``seconds`` have passed and at least ``min_solves`` untraced solves (one
    of each kind when traced) are done, or the deadline comes."""
    result = Result(wl.name, inputs, [], [], [])
    if not traced:
        result.setups = [time_setup(wl, deadline - time.perf_counter())
                         for _ in range(setup_reps)]
    start = time.perf_counter()
    need_untraced = 1 if traced else min_solves
    last = 0.0
    while True:
        now = time.perf_counter()
        enough = (len(result.samples) >= need_untraced
                  and (not traced or result.traced))
        if enough and (now - start >= seconds or now + last > deadline):
            break
        if now >= deadline:
            break
        next_traced = traced and len(result.traced) < len(result.samples)
        sample = solve(wl, inputs, next_traced, deadline - now)
        last = sample.wall_s
        (result.traced if next_traced else result.samples).append(sample)
    if not result.samples:
        raise BenchError("no untraced solve finished before the deadline")
    return result


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def report(result: Result, traced: bool, spec: dict) -> dict:
    inputs = result.inputs
    print(f"workload {result.workload}: input {inputs.path.name} "
          f"sha256 {inputs.sha256}")
    n = len(result.samples)
    if traced:
        metrics = result.per_layer(spec["per_layer"])
        print(f"  traced solves {len(result.traced)}, untraced solves {n}")
    else:
        metrics = result.end_to_end()
        raw_solve = statistics.median(s.seconds for s in result.samples)
        raw_setup = statistics.median(t for t, _ in result.setups)
        notes = {"solve_s": f"median of {n} solves; {raw_solve:.4g} s "
                            "unscaled",
                 "setup_s": f"median of {len(result.setups)} set-ups; "
                            f"{raw_setup:.4g} s unscaled",
                 "peak_rss_mb": f"median of {n} solves"}
    for name, (value, unit) in metrics.items():
        note = "" if traced else f"  ({notes[name]})"
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    probes = [s.probe_s for s in result.all_samples if s.probe_s]
    if probes:
        print(f"  probe: median {statistics.median(probes) * 1e3:.4f} ms, "
              f"baseline {PROBE_NOMINAL_S * 1e3:g} ms")
    print("  solve seconds: " + " ".join(f"{s.seconds:.3f}" for s in result.samples)
          + ("; traced: " + " ".join(f"{s.seconds:.3f}" for s in result.traced)
             if traced else ""))
    attempted = len(result.all_samples)
    print(f"  failed_frac {result.failed}/{attempted} = "
          f"{result.failed / attempted:.3g}, exit 2 on "
          f"{result.warned}/{attempted}")
    for s in result.all_samples:
        if s.error:
            print(f"  failure: {s.error}")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if not (SRC / "edgeinv" / "__init__.py").is_file():
        print(f"error: no edgeinv sources under {SRC}", file=sys.stderr)
        return 1
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    metrics, attempted, failed = {}, 0, 0
    try:
        for i, name in enumerate(names):
            deadline = time.perf_counter() + RUN_DEADLINE_S
            inputs = prepare_inputs(WORKLOADS[name], args.seed, workdir)
            if i == 0:
                print("machine: " + json.dumps(inputs.machine))
            result = measure(WORKLOADS[name], inputs, args.seconds, traced,
                             deadline)
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit) in report(result, traced, spec).items():
                metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += len(result.all_samples)
            failed += result.failed
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
