"""End-to-end topology reconstruction from pattern tensors.

Two deliberate routes:

* exhaustive -- decide every trivalent topology with the edge-invariant
  criterion and return the unique passer (the faithful decision procedure;
  a dynamic program over the clusters of the tree rooted at leaf 1 does it
  without building the (2n-5)!! trees, so the split table caps it at the
  dense-tensor cap of 12 leaves);
* split selection -- join clusters bottom up, from the n leaves, always
  the pair whose union scores least as a split, until three are left; the
  n-3 joined clusters are the tree's interior splits (also up to 12
  leaves), from O(n^2) scored splits.

Both decide through one split table (``scores.SplitTable``), which scores a
bipartition the first time a route asks for it, in stacks of the splits
asked for at once: pass/fail from ``passes`` and joining's order from
``ranked``.  Both surface their evidence: per-split scores, warnings
with a stable reason code when no topology passes uniquely, a tie was broken
by a fixed rule or a chosen split scores above tol, and optional
rank-achievement audits of the winner, whose flagged splits follow the
reason code "rank-not-generic".
Failures are diagnosed, never silent.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional

from .groups import EquivariantModel
from .records import Record
from .scores import (
    DEFAULT_SCORE_TOL,
    MAX_AUDIT_LEAVES,
    SplitScore,
    SplitTable,
    _check_tol,
    genericity_check,
    side_mask,
    split_report,
)
from .simulate import Alignment
from .tensors import MAX_LEAVES, PatternTensor
from .trees import TreeTopology, to_newick, tree_from_splits

WARN_NO_UNIQUE_PASS = "no-unique-pass"
WARN_TIE = "tie"
WARN_ABOVE_TOL = "above-tol"
WARN_RANK_NOT_GENERIC = "rank-not-generic"


class ReconstructionResult(Record):
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


def _least_total(table: SplitTable, nontrivial: list[int],
                 full: int) -> tuple[list[int], bool]:
    """Per cluster of ``full``, the part holding its lowest leaf in its
    least-total tree, and whether another tree on ``full`` ties it."""
    best = [0.0] * (full + 1)           # least total of a tree on the cluster
    runner_up = [math.inf] * (full + 1)  # the next total of a distinct tree
    choice = [0] * (full + 1)           # the part of best's split holding low
    for cluster in nontrivial + [full]:
        first = second = math.inf
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
        s = table[cluster].score if cluster != full else 0.0
        best[cluster] = s + first
        runner_up[cluster] = s + second
    return choice, runner_up[full] <= best[full] + 1e-15


def reconstruct_exhaustive(psi: PatternTensor, model: EquivariantModel,
                           tol: Optional[float] = DEFAULT_SCORE_TOL,
                           check_genericity: bool = True
                           ) -> ReconstructionResult:
    """Decide among all trivalent topologies and return the unique edge-test
    passer.

    A topology passes when every interior split passes at tol
    (``SplitTable.passes``), and its total is the sum of its split scores.
    Rooted at leaf 1, a tree is a nesting of clusters of {2..n} (bit i-2 of
    a mask for leaf i), each nontrivial cluster the side of one interior
    split, so the decision is a dynamic program over the splits of each
    cluster C into A, which holds C's lowest leaf, and C - A, in 3^(n-1)
    steps rather than (2n-5)!! trees.  One pass counts the passers:
    ``passing(C) = pass(C) * sum passing(A) passing(C - A)``.  Only without
    a unique passer does a second find the least total, ``best(C) = s(C) +
    min best(A) + best(C - A)``, and its runner-up.  Singletons and {2..n}
    pass and score 0.  Only the winner is built as a ``TreeTopology``.
    Every split is scored up front in one fill of the split table, trivial
    ones only for the audit.

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
    if not 3 <= n <= MAX_LEAVES:
        raise ValueError(f"exhaustive search supports 3..{MAX_LEAVES} "
                         f"leaves, got {n}")
    full = (1 << (n - 1)) - 1
    nontrivial = [m for m in range(1, full) if 2 <= m.bit_count() <= n - 2]
    audited = check_genericity and n <= MAX_AUDIT_LEAVES
    table = SplitTable(psi, model, range(1, full + 1) if audited
                       else nontrivial)
    if tol is None:
        tol = data_driven_tol(
            (table[mask].score for mask in nontrivial),
            (_double_factorial(2 * mask.bit_count() - 3)
             * _double_factorial(2 * (n - mask.bit_count()) - 3)
             for mask in nontrivial))

    passing = [1] * (full + 1)          # trees whose clusters all pass
    for cluster, ok in zip(nontrivial + [full],
                           table.passes(nontrivial, tol) + [True]):
        passing[cluster] = sum(passing[part] * passing[cluster ^ part]
                               for part in _parts(cluster)) if ok else 0

    warnings: list[str] = []
    passers = passing[full]
    if passers == 1:
        clusters = _backtrack(full, lambda c: next(
            a for a in _parts(c) if passing[a] and passing[c ^ a]))
    else:
        warnings.append(WARN_NO_UNIQUE_PASS)
        if passers:
            warnings.append(f"{passers} topologies pass at tol {tol:g}")
        choice, tie = _least_total(table, nontrivial, full)
        if tie:
            warnings.append(WARN_TIE)
        clusters = _backtrack(full, choice.__getitem__)
    tree = tree_from_splits([table[c].split for c in clusters if c != full],
                            n)

    genericity = _audit(psi, model, tree, table) if audited else ()
    return ReconstructionResult(
        method="exhaustive", tree=tree,
        chosen_splits=tuple(table[side_mask(s)]
                            for s in tree.interior_splits()),
        rejected_splits=(), warnings=tuple(warnings),
        genericity_warnings=genericity, passers=passers, tol=tol)


def reconstruct_by_splits(psi: PatternTensor, model: EquivariantModel,
                          tol: Optional[float] = DEFAULT_SCORE_TOL,
                          check_genericity: bool = False
                          ) -> ReconstructionResult:
    """Split selection by joining clusters bottom up.

    The clusters start as the n leaves.  At each step the pair of current
    clusters whose split (X u Y | rest) comes first in ``SplitTable.ranked``
    is joined: least score, ties to the smaller side mask
    (``scores.side_mask``); joining stops at three clusters.  The n-3 joined
    clusters are nested, so they are the interior splits of one tree.  The
    table keeps each score, so a step scores only the new cluster's pairs,
    and fewer than n^2 splits are scored in all (43 at 8 leaves, 115 at 12)
    instead of every bipartition.

    ``chosen_splits`` are the joined splits in join order.
    ``rejected_splits`` hold each join's runner-up, the least-scoring pair
    of that step whose split the tree does not hold, once each: the margin
    the joins won by.  A chosen split that fails ``SplitTable.passes`` at
    ``tol`` gives an "above-tol" warning.  ``tol=None`` selects the median
    of the scored splits / 100.
    """
    _check_tol(tol)
    n = psi.n
    if not 4 <= n <= MAX_LEAVES:
        raise ValueError(f"split selection supports 4..{MAX_LEAVES} leaves,"
                         f" got {n}")
    table = SplitTable(psi, model)
    everyone = (1 << n) - 1     # bit i-1 for leaf i, leaf 1 included

    def joined_side(x: int, y: int) -> int:
        """The side mask of the split that joining x and y makes."""
        union = x | y
        return (everyone ^ union if union & 1 else union) >> 1

    clusters = [1 << i for i in range(n)]
    joined: list[int] = []
    steps: list[Iterator[int]] = []  # each step's ranked masks after its join
    while len(clusters) > 3:
        pairs = {joined_side(x, y): (x, y)
                 for x, y in itertools.combinations(clusters, 2)}
        ranked = table.ranked(pairs)
        joined.append(next(ranked))
        steps.append(ranked)
        x, y = pairs[joined[-1]]
        clusters = [c for c in clusters if c not in (x, y)] + [x | y]
    if tol is None:
        tol = data_driven_tol(s.score for s in table.scored.values())

    chosen = tuple(table[mask] for mask in joined)
    runners_up = (next(m for m in masks if m not in joined) for masks in steps)
    rejected = tuple(table[mask] for mask in dict.fromkeys(runners_up))
    tree = tree_from_splits([s.split for s in chosen], n)
    warnings: tuple[str, ...] = ()
    above = [s.score for s, ok in zip(chosen, table.passes(joined, tol))
             if not ok]
    if above:
        warnings = (WARN_ABOVE_TOL,
                    f"{len(above)} chosen splits score above tol {tol:g} "
                    f"(max score {max(above):.3g})")
    genericity = (_audit(psi, model, tree, table)
                  if check_genericity and n <= MAX_AUDIT_LEAVES else ())
    return ReconstructionResult(
        method="splits", tree=tree, chosen_splits=chosen,
        rejected_splits=rejected, warnings=warnings,
        genericity_warnings=genericity, tol=tol)


def _audit(psi: PatternTensor, model: EquivariantModel, tree: TreeTopology,
           table: SplitTable) -> tuple[str, ...]:
    """The genericity audit's lines for ``tree``, after the reason code
    "rank-not-generic" when there are any."""
    lines = genericity_check(psi, model, tree, table=table).warnings()
    return (WARN_RANK_NOT_GENERIC, *lines) if lines else ()


def empirical_tensor(alignment: Alignment) -> PatternTensor:
    """Relative pattern frequencies of an alignment, flagged stochastic:
    each entry is its column count / sites exactly."""
    if not alignment.n_sites:
        raise ValueError("empty alignment")
    return PatternTensor.column_frequencies(alignment.codes)
