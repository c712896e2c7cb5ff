"""End-to-end topology reconstruction from pattern tensors.

Two deliberate routes:

* exhaustive -- decide every trivalent topology with the edge-invariant
  criterion and return the unique passer (the faithful decision procedure;
  a dynamic program over the clusters of the tree rooted at leaf 1 does it
  without building the (2n-5)!! trees, so the split table caps it at the
  dense-tensor cap of 12 leaves);
* split selection -- score every nontrivial bipartition, greedily keep the
  lowest-scoring mutually compatible ones until n-3 are found, and assemble
  the tree from them (also up to 12 leaves).

Both surface their evidence: per-split scores, warnings when no topology
passes uniquely or a tie was broken by a fixed rule, and optional
rank-achievement audits of the winner.  Failures are diagnosed, never
silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .groups import EquivariantModel
from .scores import (
    DEFAULT_SCORE_TOL,
    MAX_AUDIT_LEAVES,
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
    splits_compatible,
    tree_from_splits,
)

WARN_NO_UNIQUE_PASS = "no-unique-pass"
WARN_TIE = "tie"
MAX_EXHAUSTIVE_LEAVES = 12
MAX_SPLIT_LEAVES = 12


@dataclass(frozen=True)
class ReconstructionResult:
    method: str
    tree: Optional[TreeTopology]
    chosen_splits: tuple[SplitScore, ...]
    rejected_splits: tuple[SplitScore, ...]
    warnings: tuple[str, ...]
    genericity_warnings: tuple[str, ...]
    passers: Optional[int] = None   # topologies passing; exhaustive only
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


def data_driven_tol(scores: Iterable[float],
                    weights: Optional[Iterable[int]] = None) -> float:
    """Default tolerance for empirical inputs: median split score / 100.

    ``weights``, when given, are integer counts: the median is that of the
    multiset holding each score as often as its weight says.
    """
    values = list(scores)
    counts = [1] * len(values) if weights is None else list(weights)
    pairs = sorted(zip(values, counts))
    size = sum(counts)
    if not size:
        return DEFAULT_SCORE_TOL

    def at(rank: int) -> float:
        for value, count in pairs:
            rank -= count
            if rank < 0:
                return value
        raise AssertionError("rank beyond the multiset")

    # np.median's value, without the numpy.ma import its first call costs
    half = size // 2
    median = at(half) if size % 2 else (at(half - 1) + at(half)) / 2
    return max(float(median) * 1e-2, 1e-300)


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1, with (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


def _check_tol(tol: Optional[float]) -> None:
    """A tolerance is None (data driven) or a finite number >= 0."""
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _parts(cluster: int) -> Iterator[int]:
    """The part holding the lowest bit of each split of ``cluster`` into two
    nonempty parts, in ascending bitmask order."""
    low = cluster & -cluster
    rest = cluster ^ low
    sub = 0
    while sub != rest:
        yield low | sub
        sub = (sub - rest) & rest


def _backtrack(root: int, choice: Callable[[int], int]) -> list[int]:
    """The clusters of the rooted tree that ``choice`` (a cluster -> the part
    holding its lowest bit) builds below ``root``, singletons left out."""
    found, stack = [], [root]
    while stack:
        cluster = stack.pop()
        if cluster & (cluster - 1):
            found.append(cluster)
            part = choice(cluster)
            stack += [part, cluster ^ part]
    return found


def reconstruct_exhaustive(psi: PatternTensor, model: EquivariantModel,
                           tol: Optional[float] = DEFAULT_SCORE_TOL,
                           average: bool = True,
                           check_genericity: bool = True
                           ) -> ReconstructionResult:
    """Decide among all trivalent topologies and return the unique edge-test
    passer.

    A topology passes when every interior split scores <= tol, and its total
    is the sum of those scores; both depend on the tree only through its
    splits.  Rooted at leaf 1, a tree is a nesting of clusters of {2..n}
    (bit i-2 of a mask for leaf i), each nontrivial cluster the side of one
    interior split, so the decision is a dynamic program over clusters:
    ``best(C) = s(C) + min best(A) + best(C - A)`` over the splits of C into
    A, which holds C's lowest leaf, and C - A, with s = 0 for singletons and
    for {2..n}.  The same recursion keeps the runner-up total and counts the
    passers (a cluster is allowed when s(C) <= tol), in 3^(n-1) steps rather
    than (2n-5)!! trees; only the winner is built as a ``TreeTopology``.

    Without a unique passer the minimum-total topology is returned with a
    "no-unique-pass" warning, and with a "tie" warning when the runner-up
    total is within 1e-15 of it.  Exact ties are broken cluster by cluster
    from {2..n} down: of the splits of C with the least total, the one whose
    part holding C's lowest leaf has the smallest mask wins.  ``tol=None``
    selects the data-driven default: the median of the interior split scores
    of all topologies, each split weighted by the (2a-3)!!(2b-3)!!
    topologies that hold it (a and b leaves on its sides), / 100.  The
    genericity audit of the winner runs at n <= 10.
    """
    _check_tol(tol)
    n = psi.n
    if not 3 <= n <= MAX_EXHAUSTIVE_LEAVES:
        raise ValueError(f"exhaustive search supports "
                         f"3..{MAX_EXHAUSTIVE_LEAVES} leaves, got {n}")
    scored_psi = averaged(psi, model) if average else psi
    table = score_splits(scored_psi, model,
                         all_bipartitions(n, nontrivial_only=True),
                         average=False)
    if tol is None:
        tol = data_driven_tol(
            (s.score for s in table.values()),
            (_double_factorial(2 * len(split.side) - 3)
             * _double_factorial(2 * (n - len(split.side)) - 3)
             for split in table))
    by_mask = {sum(1 << (leaf - 2) for leaf in split.side): split
               for split in table}
    score = {mask: table[split].score for mask, split in by_mask.items()}

    full = (1 << (n - 1)) - 1
    best = [0.0] * (full + 1)           # least total of a tree on the cluster
    runner_up = [math.inf] * (full + 1)  # the next total of a distinct tree
    choice = [0] * (full + 1)           # the part of best's split holding low
    passing = [1] * (full + 1)          # trees whose clusters all pass
    for cluster in range(3, full + 1):
        if not cluster & (cluster - 1):
            continue
        first = second = math.inf
        count = 0
        for part in _parts(cluster):
            other = cluster ^ part
            total = best[part] + best[other]
            if total < first:
                second = min(first, runner_up[part] + best[other],
                             best[part] + runner_up[other])
                first = total
                choice[cluster] = part
            elif total < second:
                second = total
            count += passing[part] * passing[other]
        s = score.get(cluster, 0.0)
        best[cluster] = s + first
        runner_up[cluster] = s + second
        passing[cluster] = count if s <= tol else 0

    warnings: list[str] = []
    passers = passing[full]
    if passers == 1:
        clusters = _backtrack(full, lambda c: next(
            a for a in _parts(c) if passing[a] and passing[c ^ a]))
    else:
        warnings.append(WARN_NO_UNIQUE_PASS)
        if passers:
            warnings.append(f"{passers} topologies pass at tol {tol:g}")
        if runner_up[full] <= best[full] + 1e-15:
            warnings.append(WARN_TIE)
        clusters = _backtrack(full, choice.__getitem__)
    tree = tree_from_splits([by_mask[c] for c in clusters if c != full], n)

    genericity: tuple[str, ...] = ()
    if check_genericity and n <= MAX_AUDIT_LEAVES:
        audit = genericity_check(scored_psi, model, tree,
                                 average=False, table=table)
        genericity = tuple(audit.warnings())
    return ReconstructionResult(
        method="exhaustive", tree=tree,
        chosen_splits=tuple(table[s] for s in tree.interior_splits()),
        rejected_splits=(), warnings=tuple(warnings),
        genericity_warnings=genericity, passers=passers, tol=tol)


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
            if check_genericity and n <= MAX_AUDIT_LEAVES:
                audit = genericity_check(scored_psi, model, tree,
                                         average=False, table=table)
                genericity = tuple(audit.warnings())
    return ReconstructionResult(
        method="splits", tree=tree, chosen_splits=tuple(chosen),
        rejected_splits=tuple(skipped), warnings=tuple(warnings),
        genericity_warnings=genericity, tol=tol)


def empirical_tensor(alignment: Alignment) -> PatternTensor:
    """Relative pattern frequencies of an alignment, flagged stochastic.

    A pattern with a symbol outside ACGT raises; ``read_fasta`` drops or
    rejects such columns before they get here.
    """
    if alignment.n_sites == 0:
        raise ValueError("empty alignment")
    patterns = list(alignment.counts)
    codes = pattern_codes(patterns, alignment.n_taxa)
    bad = (codes == AMBIGUOUS).any(axis=0)
    if bad.any():
        raise ValueError(f"non-ACGT pattern {patterns[bad.argmax()]!r}")
    counts = np.fromiter(alignment.counts.values(), float, len(patterns))
    return PatternTensor.from_codes(codes, counts / counts.sum(),
                                    stochastic=True)
