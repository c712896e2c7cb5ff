"""Numerical membership tests for split and model constraints.

The primary split test is spectral: a bipartition is compatible with the data
tensor when every thin-flattening block has rank at most the one-site
multiplicity of its irrep, so the score aggregates the singular values beyond
that index.  Blocks are weighted by their irrep dimension, which makes the
score equal to the spectral tail of the plain flattening for invariant
tensors, and the whole thing is divided by the tensor norm so tolerances are
scale-free.

Determinant evaluation of the individual rank constraints is kept as an
exact, auditable witness: minors are enumerated in a frozen order (blocks in
irrep order, then row subsets lexicographically, then column subsets) under a
budget, since the largest model has ~3.7e7 of them per split.
"""

from __future__ import annotations

import itertools
from math import comb, fsum, sqrt
from typing import Iterable, Iterator, Optional

import numpy as np

from .groups import EquivariantModel, MultiplicityVector, \
    expected_rank_vector, model_chain, orbit_stages
from .records import Record
from .tensors import (
    CharacterTransform,
    PatternTensor,
    RankVector,
    block_spectra,
    character_flattening,
    split_stacks,
    stack_ranks,
)
from .trees import Bipartition, TreeTopology

DEFAULT_RANK_TOL = 1e-7
DEFAULT_SCORE_TOL = 1e-8
MAX_AUDIT_LEAVES = 10


class SplitScore(Record):
    """Rank-deficiency residual of one bipartition against the edge target.

    ``per_block_residuals[t]`` is the l2 mass of block t's singular values
    beyond the one-site multiplicity m_t; ``score`` aggregates them weighted
    by irrep dimension and normalized by the tensor norm.  Zero (to fp noise)
    exactly when every block satisfies its rank bound.
    """

    split: Bipartition
    per_block_residuals: tuple[float, ...]
    score: float
    expected: MultiplicityVector
    achieved: Optional[RankVector]  # None where scored by construction


def split_score(psi: PatternTensor, split: Bipartition,
                model: EquivariantModel) -> SplitScore:
    """Score a bipartition of the tensor's leaves as a candidate edge split
    (``score_splits`` with this one split).

    The score is of the group-averaged tensor, the projection onto the
    G-invariants whose flattening ranks the edge invariants bound, which
    the split table's character transform holds (``CharacterTransform``).
    Trivial splits score 0 by construction: a side of one leaf makes every
    block at most m_t rows tall, so there is no spectral tail to measure.
    """
    return score_splits(psi, model, [split])[split]


def side_mask(split: Bipartition) -> int:
    """The bitmask of the split's side without leaf 1: bit i-2 for leaf i."""
    return sum(1 << (leaf - 2) for leaf in split.side)


def _check_tol(tol: Optional[float]) -> None:
    """A tolerance is None (data driven) or a finite number >= 0."""
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


class SplitTable:
    """The split table of one tensor, filled on demand.

    ``table[mask]`` is the ``SplitScore`` of the bipartition whose side
    without leaf 1 is ``mask`` (``side_mask``), once scored.  ``fill`` and
    the decision queries ``passes`` and ``ranked`` score every mask they
    are given that ``scored`` does not hold yet, the table's ``masks`` on
    creation.  Trivial splits get their achieved ranks here too.  Every
    score comes from the tensor's one character transform and the norm of
    the group average that it holds.

    Every model takes one block route (``tensors.character_flattening``).
    The tensor is transformed once, by a one-site character basis along
    each axis (the model's own for GMM, SSM and K81, K81's for K80 and
    JC69), and the table keeps the transform's class of label 0 only: a
    quarter of the tensor, half for SSM, all of it for GMM.  That is the
    label group's average and, averaged over the 2 or 6 digit permutations
    of the stabiliser of a state, K80's or JC69's (``CharacterTransform``).
    Each split's block of irrep t pairs the patterns of t's label c_t on
    both sides, compressed to the first copy of t by a small change of
    basis for the stabiliser of c_t, both read off the irrep matrices
    (``groups.CliffordReduction``); for the abelian models c_t is t and
    the change of basis is the identity.

    A fill scores its splits in stacks (``tensors.split_stacks``): splits
    with equal side sizes share their label classes and first-copy pieces,
    so their blocks have one shape.  A stack takes one copy of the kept
    class per split with one row take per label, one compression per irrep
    piece and one SVD call per irrep.  Stacks are capped at
    ``tensors.STACK_ENTRIES`` entries: at 6 to 8 leaves a shape group is
    one stack or a few, from 10 leaves on a stack is one split.
    """

    def __init__(self, psi: PatternTensor, model: EquivariantModel,
                 masks: Iterable[int] = ()):
        self.model = model
        self.transform = CharacterTransform(psi, model)
        # the basis is orthonormal: the average's norm is the kept class's
        self.norm = float(np.linalg.norm(self.transform.kept))
        self.scored: dict[int, SplitScore] = {}
        self.fill(masks)

    def __getitem__(self, mask: int) -> SplitScore:
        return self.scored[mask]

    def fill(self, masks: Iterable[int]) -> None:
        n = len(self.transform.labels)
        new = [Bipartition.from_side(
                   frozenset(leaf for leaf in range(2, n + 1)
                             if mask >> (leaf - 2) & 1), n)
               for mask in dict.fromkeys(masks) if mask not in self.scored]
        for stack in split_stacks(new, self.model):
            for score in self._score(stack):
                self.scored[side_mask(score.split)] = score

    def passes(self, masks: list[int], tol: float) -> list[bool]:
        """Per mask, whether its split scores <= tol: its edge test."""
        self.fill(masks)
        return [self.scored[mask].score <= tol for mask in masks]

    def ranked(self, masks: Iterable[int]) -> Iterator[int]:
        """The distinct masks, least score first, ties to the smaller mask."""
        masks = list(dict.fromkeys(masks))
        self.fill(masks)
        return iter(sorted(masks, key=lambda m: (self.scored[m].score, m)))

    def _score(self, stack: list[Bipartition]) -> list[SplitScore]:
        target = self.model.multiplicities(1)
        spectra = [np.empty(0)] * self.model.n_irreps
        for t, blocks in character_flattening(self.transform, stack,
                                              self.model):
            spectra[t] = block_spectra(blocks)
            del blocks  # before the next irrep's are compressed
        tails = [np.sqrt((s[:, m:] ** 2).sum(axis=1)).tolist()
                 for s, m in zip(spectra, target)]
        ranks = stack_ranks(spectra, self.model.dims, DEFAULT_RANK_TOL)
        scores = []
        for split, residuals, achieved in zip(stack, zip(*tails), ranks):
            weighted = sum(d * r * r
                           for d, r in zip(self.model.dims, residuals))
            score = (float(np.sqrt(weighted) / self.norm) if self.norm > 0
                     else 0.0)
            scores.append(SplitScore(split, residuals, score, target,
                                     achieved))
        return scores


def score_splits(psi: PatternTensor, model: EquivariantModel,
                 splits: Iterable[Bipartition]
                 ) -> dict[Bipartition, SplitScore]:
    """One score per bipartition, in the order given: the nontrivial ones
    from one fill of one ``SplitTable`` of the tensor, the trivial ones 0 by
    construction (``split_score``), with no achieved ranks and no average
    of the tensor."""
    splits = list(splits)
    if any(split.n_leaves != psi.n for split in splits):
        raise ValueError("split does not partition the tensor labels")
    masks = [side_mask(split) for split in splits if not split.is_trivial]
    scored = SplitTable(psi, model, masks).scored if masks else {}
    target = model.multiplicities(1)
    zeros = tuple(0.0 for _ in target.entries)
    return {split: SplitScore(split, zeros, 0.0, target, None)
            if split.is_trivial else scored[side_mask(split)]
            for split in splits}


class EdgeTestReport(Record):
    """Outcome of testing a tensor against one topology's interior splits."""

    tree: TreeTopology
    passed: bool
    scores: tuple[SplitScore, ...]
    tol: float

    @property
    def max_score(self) -> float:
        return max((s.score for s in self.scores), default=0.0)


def edge_invariant_test(psi: PatternTensor, tree: TreeTopology,
                        model: EquivariantModel,
                        tol: float = DEFAULT_SCORE_TOL) -> EdgeTestReport:
    """Pass iff every interior edge split of ``tree`` passes at ``tol``."""
    if tol is None:  # a test of one tree has no data to drive a tolerance
        raise ValueError("tol must be finite and non-negative, got None")
    _check_tol(tol)
    if psi.n != tree.n_leaves:
        raise ValueError("tensor and tree disagree on the leaf count")
    masks = [side_mask(split) for split in tree.interior_splits()]
    table = SplitTable(psi, model, masks)
    return EdgeTestReport(tree, all(table.passes(masks, tol)),
                          tuple(table[mask] for mask in masks), tol)


class GenericityEntry(Record):
    split: Bipartition
    expected: tuple[int, ...]
    achieved: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.expected == self.achieved


class GenericityReport(Record):
    """Rank-achievement audit of a tensor against a candidate topology.

    The spectral decision procedure is only guaranteed on tensors whose every
    bipartition attains its ceiling rank; entries where the achieved block
    ranks differ from that ceiling flag data outside the guaranteed locus.
    """

    tree: TreeTopology
    entries: tuple[GenericityEntry, ...]

    @property
    def flagged(self) -> tuple[GenericityEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def generic(self) -> bool:
        return not self.flagged

    def warnings(self) -> list[str]:
        return [f"rank not generic at {e.split}: achieved {e.achieved}, "
                f"ceiling {e.expected}" for e in self.flagged]


def all_bipartitions(n: int, nontrivial_only: bool = False) -> list[Bipartition]:
    """Every bipartition of 1..n, in canonical order."""
    out = []
    low = 2 if nontrivial_only else 1
    for r in range(low, n - low + 1):
        for side in itertools.combinations(range(2, n + 1), r):
            out.append(Bipartition(side, n))
    return sorted(out, key=Bipartition.sort_key)


def genericity_check(psi: PatternTensor, model: EquivariantModel,
                     tree: TreeTopology, table: Optional[SplitTable] = None
                     ) -> GenericityReport:
    """Verify the tensor attains the ceiling rank at every bipartition of the
    candidate tree (the hypothesis under which edge tests are decisive).

    The ceiling is m(c), c the fewest edges of ``tree`` whose removal
    separates the bipartition's two sides (``expected_rank_vector``).

    Ranks are those of the group-averaged tensor, read from ``table`` (a
    split table of ``psi`` when given, else a new one) after one fill with
    every bipartition, trivial ones included.
    """
    n = psi.n
    if n > MAX_AUDIT_LEAVES:
        raise ValueError(f"genericity audit capped at {MAX_AUDIT_LEAVES} "
                         "leaves")
    if tree.n_leaves != n:
        raise ValueError("tensor and tree disagree on the leaf count")
    if table is None:
        table = SplitTable(psi, model)
    splits = all_bipartitions(n)
    masks = [side_mask(split) for split in splits]
    table.fill(masks)
    entries = []
    for split, mask in zip(splits, masks):
        ceiling = expected_rank_vector(model, tree, split)
        entries.append(GenericityEntry(split, tuple(ceiling.entries),
                                       table[mask].achieved.entries))
    return GenericityReport(tree, tuple(entries))


# ---------------------------------------------------------------------------
# Generator catalog and exact minor evaluation
# ---------------------------------------------------------------------------

class BlockCatalog(Record):
    irrep: int
    shape: tuple[int, int]
    target_rank: int
    minor_order: int
    count: int

    @property
    def degree(self) -> int:
        return self.minor_order


class GeneratorCatalog(Record):
    """Census of the determinantal constraints cutting out one edge split.

    Block t of the thin flattening contributes its (m_t+1)-minors; a block
    whose target rank is zero contributes its entries as linear constraints.
    """

    model_name: str
    row_power: int
    col_power: int
    blocks: tuple[BlockCatalog, ...]

    @property
    def total(self) -> int:
        return sum(b.count for b in self.blocks)

    @property
    def degree_set(self) -> frozenset[int]:
        return frozenset(b.degree for b in self.blocks if b.count > 0)

    def count_for_degree(self, degree: int) -> int:
        return sum(b.count for b in self.blocks if b.degree == degree)


def generator_catalog(model: EquivariantModel, row_power: int,
                      col_power: int) -> GeneratorCatalog:
    if row_power < 1 or col_power < 1:
        raise ValueError("tensor powers must be at least 1")
    target = model.multiplicities(1)
    row_mult = model.multiplicities(row_power)
    col_mult = model.multiplicities(col_power)
    blocks = []
    for t in range(model.n_irreps):
        a, b, m = row_mult[t], col_mult[t], target[t]
        order = m + 1
        count = comb(a, order) * comb(b, order)
        blocks.append(BlockCatalog(t, (a, b), m, order, count))
    return GeneratorCatalog(model.name, row_power, col_power, tuple(blocks))


class MinorEvaluation(Record):
    max_abs_minor: float
    evaluated: int
    exhausted: bool
    budget: int


def evaluate_generators(psi: PatternTensor, split: Bipartition,
                        model: EquivariantModel, budget: int
                        ) -> MinorEvaluation:
    """Evaluate the determinantal constraints at the tensor, up to ``budget``.

    Enumeration order is frozen for reproducibility of budgeted runs:
    blocks in irrep order, row subsets lexicographically major, column
    subsets lexicographically within each row subset.  The minors are those
    of the group average's ``character_flattening`` blocks, in orthonormal
    multiplicity-space bases: others change the minors but not the ideal
    they generate.  The maximum absolute minor is an exact membership
    witness: all minors vanish iff every block rank bound holds.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    blocks = dict(character_flattening(psi, [split], model))
    target = model.multiplicities(1)
    best = 0.0
    evaluated = 0
    for t in range(model.n_irreps):
        block = blocks[t][0]
        order = target[t] + 1
        rows, cols = block.shape
        if rows < order or cols < order:
            continue
        for row_set in itertools.combinations(range(rows), order):
            sub_rows = block[list(row_set), :]
            remaining = budget - evaluated
            if remaining <= 0:
                return MinorEvaluation(best, evaluated, False, budget)
            col_sets = list(itertools.islice(
                itertools.combinations(range(cols), order), remaining))
            stacked = np.stack([sub_rows[:, list(cs)] for cs in col_sets])
            dets = np.abs(np.linalg.det(stacked))
            best = max(best, float(dets.max()))
            evaluated += len(col_sets)
            if len(col_sets) < comb(cols, order):
                return MinorEvaluation(best, evaluated, False, budget)
    return MinorEvaluation(best, evaluated, True, budget)


# ---------------------------------------------------------------------------
# Model fit
# ---------------------------------------------------------------------------

def model_fit_score(psi: PatternTensor, model: EquivariantModel) -> float:
    """Relative violation of the linear constraints carving out the
    G-invariant tensors: ||psi - avg(psi)|| / ||psi||, zero iff exactly
    invariant.  Nested symmetries give nested scores: a larger group can only
    increase the residual.  The trivial group scores exactly 0.

    The average is made one G-orbit of blocks at a time
    (``groups.orbit_stages``), and the difference taken block by block in
    the walk's scratch, so nothing tensor-sized is allocated."""
    return fit_scores(psi, [model])[0]


def fit_scores(psi: PatternTensor, models: list[EquivariantModel]
               ) -> list[float]:
    """``model_fit_score`` of each of ``models``, which must nest
    (``groups.model_chain``), from one orbit walk of the largest group:
    each smaller group's gaps are taken at the stage of the walk where its
    average is complete."""
    chain = model_chain(models)
    # both norms from per-block sums of squares, summed exactly: one dot
    # product over a 12-leaf tensor rounds its sum by ~3e-13.  Row k of
    # ``gaps`` holds chain[k]'s, one float per block in walk order
    gaps, filled = (), [0] * len(chain)
    if chain:
        for k, block, average in orbit_stages(psi.values, chain, psi.n):
            i = filled[k]
            if k == 0:
                if i == 0:  # the walk's first block
                    squares = np.empty(psi.values.size // block.size)
                    gaps = np.empty((len(chain), len(squares)))
                squares[i] = block @ block
            average -= block  # in the walk's scratch
            gaps[k, i], filled[k] = average @ average, i + 1
    norm2 = fsum(squares) if chain else psi.norm()
    if norm2 == 0.0:
        raise ValueError("model fit is undefined for the zero tensor")
    score = {m: sqrt(fsum(g) / norm2) for m, g in zip(chain, gaps)}
    return [score.get(m, 0.0) for m in models]


# ---------------------------------------------------------------------------
# JSON report schema
# ---------------------------------------------------------------------------

def split_report(model: EquivariantModel, n: int,
                 scores: Iterable[SplitScore],
                 warnings: Iterable[str] = ()) -> dict:
    """The machine-readable report: one record per bipartition scored."""
    return {
        "model": model.name,
        "n": n,
        "bipartitions": [
            {
                "split": str(s.split),
                "per_block_residuals": list(s.per_block_residuals),
                "score": s.score,
                "expected_rank": list(s.expected.entries),
                "achieved_rank": (list(s.achieved.entries)
                                  if s.achieved is not None else None),
            }
            for s in scores
        ],
        "warnings": list(warnings),
    }
