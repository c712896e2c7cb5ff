"""End-to-end topology reconstruction from pattern tensors.

Two deliberate routes:

* exhaustive -- test every trivalent topology with the edge-invariant
  criterion and return the unique passer (the faithful decision procedure;
  topology count caps it at 8 leaves);
* split selection -- score every nontrivial bipartition, greedily keep the
  lowest-scoring mutually compatible ones until n-3 are found, and assemble
  the tree from them (scales to the dense-tensor cap of 12 leaves).

Both surface their evidence: per-split scores, warnings when no topology
passes uniquely or a tie was broken by enumeration order, and optional
rank-achievement audits of the winner.  Failures are diagnosed, never
silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .groups import EquivariantModel
from .scores import (
    DEFAULT_SCORE_TOL,
    SplitScore,
    all_bipartitions,
    genericity_check,
    score_splits,
    split_report,
)
from .simulate import Alignment
from .tensors import AMBIGUOUS, PatternTensor, averaged, pattern_codes
from .trees import (
    SplitSystemError,
    TreeTopology,
    enumerate_trivalent_topologies,
    splits_compatible,
    tree_from_splits,
)

WARN_NO_UNIQUE_PASS = "no-unique-pass"
WARN_TIE = "tie"
MAX_EXHAUSTIVE_LEAVES = 8
MAX_SPLIT_LEAVES = 12


@dataclass(frozen=True)
class CandidateReport:
    """One topology's showing in the exhaustive scan."""

    tree: TreeTopology
    total_score: float
    passed: bool


@dataclass(frozen=True)
class ReconstructionResult:
    method: str
    tree: Optional[TreeTopology]
    chosen_splits: tuple[SplitScore, ...]
    rejected_splits: tuple[SplitScore, ...]
    warnings: tuple[str, ...]
    genericity_warnings: tuple[str, ...]
    candidates: tuple[CandidateReport, ...] = ()
    tol: float = DEFAULT_SCORE_TOL

    @property
    def confident(self) -> bool:
        return self.tree is not None and not self.warnings

    def to_report(self, model: EquivariantModel, n: int) -> dict:
        from .trees import to_newick
        doc = split_report(model, n, self.chosen_splits + self.rejected_splits,
                           warnings=list(self.warnings)
                           + list(self.genericity_warnings))
        doc["method"] = self.method
        doc["tree"] = to_newick(self.tree) if self.tree else None
        doc["tol"] = self.tol
        return doc


def data_driven_tol(scores: Iterable[float]) -> float:
    """Default tolerance for empirical inputs: median split score / 100."""
    values = sorted(scores)
    if not values:
        return DEFAULT_SCORE_TOL
    # np.median's value, without the numpy.ma import its first call costs
    half = len(values) // 2
    median = values[half] if len(values) % 2 else \
        (values[half - 1] + values[half]) / 2
    return max(float(median) * 1e-2, 1e-300)


def _check_tol(tol: Optional[float]) -> None:
    """A tolerance is None (data driven) or a finite number >= 0."""
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def reconstruct_exhaustive(psi: PatternTensor, model: EquivariantModel,
                           tol: Optional[float] = DEFAULT_SCORE_TOL,
                           average: bool = True,
                           check_genericity: bool = True
                           ) -> ReconstructionResult:
    """Scan all trivalent topologies and return the unique edge-test passer.

    Without a unique passer the minimum-total-score topology is returned with
    a "no-unique-pass" warning; exact ties are broken by the canonical
    enumeration order and warned about.  ``tol=None`` selects the data-driven
    default (median of all edge scores / 100, each topology's splits counted).
    """
    _check_tol(tol)
    n = psi.n
    if not 3 <= n <= MAX_EXHAUSTIVE_LEAVES:
        raise ValueError(f"exhaustive scan supports 3..{MAX_EXHAUSTIVE_LEAVES}"
                         f" leaves, got {n}")
    scored_psi = averaged(psi, model) if average else psi
    table = score_splits(scored_psi, model,
                         all_bipartitions(n, nontrivial_only=True),
                         average=False)
    topologies = enumerate_trivalent_topologies(n)
    tree_scores = [tuple(table[s] for s in tree.interior_splits())
                   for tree in topologies]
    if tol is None:
        tol = data_driven_tol(s.score for scores in tree_scores
                              for s in scores)
    candidates = tuple(
        CandidateReport(tree, sum(s.score for s in scores),
                        all(s.score <= tol for s in scores))
        for tree, scores in zip(topologies, tree_scores))

    warnings: list[str] = []
    passers = [i for i, c in enumerate(candidates) if c.passed]
    if len(passers) == 1:
        winner = passers[0]
    else:
        warnings.append(WARN_NO_UNIQUE_PASS)
        if passers:
            warnings.append(f"{len(passers)} topologies pass at tol {tol:g}")
        best = min(c.total_score for c in candidates)
        tied = [i for i, c in enumerate(candidates)
                if c.total_score <= best + 1e-15]
        if len(tied) > 1:
            warnings.append(WARN_TIE)
        winner = tied[0]

    genericity: tuple[str, ...] = ()
    if check_genericity:
        audit = genericity_check(scored_psi, model, topologies[winner],
                                 average=False, table=table)
        genericity = tuple(audit.warnings())
    return ReconstructionResult(
        method="exhaustive", tree=topologies[winner],
        chosen_splits=tree_scores[winner], rejected_splits=(),
        warnings=tuple(warnings), genericity_warnings=genericity,
        candidates=candidates, tol=tol)


def reconstruct_by_splits(psi: PatternTensor, model: EquivariantModel,
                          tol: Optional[float] = DEFAULT_SCORE_TOL,
                          average: bool = True,
                          check_genericity: bool = False
                          ) -> ReconstructionResult:
    """Greedy split selection plus combinatorial assembly.

    All nontrivial bipartitions are scored once; ascending by score, each is
    kept when compatible with everything already kept, until n-3 survive.
    The assembled tree is re-verified against the edge tolerance from the
    same split table.  When fewer than n-3 mutually compatible splits exist
    the result carries no tree and the skipped splits document the conflict.
    """
    _check_tol(tol)
    n = psi.n
    if not 4 <= n <= MAX_SPLIT_LEAVES:
        raise ValueError(f"split selection supports 4..{MAX_SPLIT_LEAVES}"
                         f" leaves, got {n}")
    scored_psi = averaged(psi, model) if average else psi
    table = score_splits(scored_psi, model,
                         all_bipartitions(n, nontrivial_only=True),
                         average=False)
    scores = sorted(table.values(),
                    key=lambda s: (s.score, s.split.sort_key()))
    if tol is None:
        tol = data_driven_tol(s.score for s in scores)

    chosen: list[SplitScore] = []
    skipped: list[SplitScore] = []
    for candidate in scores:
        if len(chosen) == n - 3:
            break
        if all(splits_compatible(candidate.split, c.split) for c in chosen):
            chosen.append(candidate)
        else:
            skipped.append(candidate)

    warnings: list[str] = []
    tree: Optional[TreeTopology] = None
    genericity: tuple[str, ...] = ()
    if len(chosen) < n - 3:
        warnings.append(f"only {len(chosen)} mutually compatible splits "
                        f"found, need {n - 3}")
        for s in skipped:
            warnings.append(f"incompatible candidate {s.split} "
                            f"(score {s.score:.3g})")
    else:
        try:
            tree = tree_from_splits([s.split for s in chosen], n)
        except SplitSystemError as err:  # defensive; greedy keeps compatibility
            warnings.append(f"assembly failed: {err}")
        if tree is not None:
            worst = max(table[s].score for s in tree.interior_splits())
            if worst > tol:
                warnings.append(
                    f"assembled tree fails the edge test at tol {tol:g} "
                    f"(max score {worst:.3g})")
            above = [s for s in chosen if s.score > tol]
            if above:
                warnings.append(f"{len(above)} chosen splits score above "
                                f"tol {tol:g}")
            if check_genericity and n <= 10:
                audit = genericity_check(scored_psi, model, tree,
                                         average=False, table=table)
                genericity = tuple(audit.warnings())
    return ReconstructionResult(
        method="splits", tree=tree, chosen_splits=tuple(chosen),
        rejected_splits=tuple(skipped), warnings=tuple(warnings),
        genericity_warnings=genericity, tol=tol)


def empirical_tensor(alignment: Alignment, ambiguous: str = "error"
                     ) -> PatternTensor:
    """Relative pattern frequencies of an alignment, flagged stochastic.

    Patterns with symbols outside ACGT are dropped or rejected according to
    ``ambiguous``; FASTA loading normally handles this earlier.
    """
    if alignment.n_sites == 0:
        raise ValueError("empty alignment")
    patterns = list(alignment.counts)
    codes = pattern_codes(patterns, alignment.n_taxa)
    bad = (codes == AMBIGUOUS).any(axis=0)
    if bad.any():
        if ambiguous != "drop":
            raise ValueError(f"non-ACGT pattern {patterns[bad.argmax()]!r}")
        codes = codes[:, ~bad]
    counts = np.fromiter(alignment.counts.values(), float, len(patterns))
    counts = counts[~bad]
    total = counts.sum()
    if total == 0:
        raise ValueError("no usable patterns remain")
    return PatternTensor.from_codes(codes, counts / total, stochastic=True)
