"""Per-layer spans and counters around edgeinv's functions.

The recorder is installed from outside the package: each wrapped function is
replaced, in every loaded ``edgeinv`` module that refers to it, by a wrapper
that opens a span.  A span's self time is its duration minus the time of the
spans it encloses, so the self times of all spans add up to the root span
(the call into ``cli.main``).  A function missing from the package (moved or
renamed) is simply not traced, and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span).  Two functions may share a span.
SPANS = (
    ("edgeinv.trees", "enumerate_trivalent_topologies", "trees.enumerate"),
    ("edgeinv.groups", "symmetry_adapted_basis", "groups.basis"),
    ("edgeinv.groups", "group_average", "groups.average"),
    ("edgeinv.tensors", "thin_flatten", "tensors.thin_flatten"),
    ("edgeinv.tensors", "thin_rank", "tensors.thin_rank"),
    ("edgeinv.tensors", "tensor_from_bytes", "tensors.load"),
    ("edgeinv.tensors", "tensor_from_json", "tensors.load"),
    ("edgeinv.scores", "split_score", "scores.split_score"),
    ("edgeinv.scores", "edge_invariant_test", "scores.edge_test"),
    ("edgeinv.scores", "genericity_check", "scores.genericity"),
    ("edgeinv.scores", "model_fit_score", "scores.model_fit"),
    ("edgeinv.simulate", "read_fasta", "simulate.read_fasta"),
    ("edgeinv.reconstruct", "empirical_tensor", "reconstruct.empirical_tensor"),
    ("edgeinv.reconstruct", "reconstruct_exhaustive", "reconstruct"),
    ("edgeinv.reconstruct", "reconstruct_by_splits", "reconstruct"),
)
# A numpy.linalg.svd call is a span of its own only inside these spans.
SVD_OWNERS = ("scores.split_score", "tensors.thin_rank")

SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "trees.enumerate": "trees.enumerate_s",
    "groups.basis": "groups.basis_s",
    "groups.average": "groups.average_s",
    "tensors.thin_flatten": "tensors.thin_flatten_s",
    "tensors.thin_rank": "tensors.thin_rank_s",
    "tensors.load": "tensors.load_s",
    "scores.split_score": "scores.split_score_s",
    "scores.edge_test": "scores.edge_test_s",
    "scores.genericity": "scores.genericity_s",
    "scores.model_fit": "scores.model_fit_s",
    "scores.svd": "scores.svd_s",
    "simulate.read_fasta": "simulate.read_fasta_s",
    "reconstruct.empirical_tensor": "reconstruct.empirical_tensor_s",
    "reconstruct": "reconstruct.self_s",
}
CALL_METRICS = {
    "groups.basis": "groups.basis_calls",
    "groups.average": "groups.average_calls",
    "tensors.thin_flatten": "tensors.thin_flatten_calls",
    "tensors.thin_rank": "tensors.thin_rank_calls",
    "scores.split_score": "scores.split_score_calls",
    "scores.edge_test": "scores.edge_test_calls",
    "scores.svd": "scores.svd_calls",
}


class Recorder:
    """Spans kept in memory for one solve; ``summary`` turns them into
    per-layer self times and counts."""

    def __init__(self):
        self._stack: list[list] = []      # [span, seconds spent in children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.root_s = 0.0
        self.splits: set = set()
        self.topologies = 0
        self.basis_builds = 0

    def call(self, span: str, fn, *args, **kwargs):
        frame = [span, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[span] += elapsed - frame[1]
            self.calls[span] += 1
            if self._stack:
                self._stack[-1][1] += elapsed
            else:
                self.root_s += elapsed

    def inside(self, spans) -> bool:
        return any(frame[0] in spans for frame in self._stack)

    def summary(self) -> dict:
        out = {metric: self.self_s.get(span, 0.0)
               for span, metric in SELF_TIME_METRICS.items()}
        out.update({metric: self.calls.get(span, 0)
                    for span, metric in CALL_METRICS.items()})
        calls = self.calls.get("scores.split_score", 0)
        out["trees.topologies"] = self.topologies
        out["groups.basis_builds"] = self.basis_builds
        out["scores.distinct_splits"] = len(self.splits)
        out["scores.split_reuse_ratio"] = len(self.splits) / calls if calls else 0.0
        return out


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded edgeinv module's reference to ``original`` at
    ``wrapper``, so calls through ``from .x import f`` names are traced."""
    for name, module in list(sys.modules.items()):
        if name != "edgeinv" and not name.startswith("edgeinv."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _spanned(recorder: Recorder, span: str, fn, after=None):
    def wrapper(*args, **kwargs):
        result = recorder.call(span, fn, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap the package's layer functions; call after importing edgeinv.cli."""
    def count_split(args, kwargs, result):
        recorder.splits.add(args[1] if len(args) > 1 else kwargs.get("split"))

    def count_topologies(args, kwargs, result):
        recorder.topologies += len(result)

    hooks = {"scores.split_score": count_split,
             "trees.enumerate": count_topologies}
    for module_name, attr, span in SPANS:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        _replace_everywhere(original, _spanned(recorder, span, original,
                                               hooks.get(span)))

    groups = sys.modules.get("edgeinv.groups")
    build = getattr(groups, "_build_basis", None)
    if build is not None:
        def counted_build(*args, **kwargs):
            recorder.basis_builds += 1
            return build(*args, **kwargs)
        _replace_everywhere(build, counted_build)

    svd = np.linalg.svd

    def traced_svd(*args, **kwargs):
        if recorder.inside(SVD_OWNERS):
            return recorder.call("scores.svd", svd, *args, **kwargs)
        return svd(*args, **kwargs)
    np.linalg.svd = traced_svd
