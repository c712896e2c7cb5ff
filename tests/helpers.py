"""Test-only helpers: the plain flattening and its rank, the thin flattening
of one split with its block ranks, the sparse-basis thin flattening with
its invariance diagnostics, every trivalent topology and the exhaustive
decision by scanning them, greedy selection from every split, split tables
with made-up scores, tensors, the gluing contraction, the no-mutation
presentation, relabellings, dense operators, pattern maps, presentation
JSON round-trips, the per-split block route with its two-sided
compression, the line-by-line and break-by-break FASTA strips,
alignments from pattern counts, the string route of sampled FASTA text, the
loop forms of the FASTA column count and the character transform, the group
average over whole tensors and one model's orbit walk, the group tables by
brute force, table digests, and a fresh interpreter that imports this
edgeinv, that the tests build their fixtures and oracles from, and the
package does not use.  Only the sparse route needs scipy."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np
from scipy import sparse

import edgeinv
from edgeinv.groups import K, EquivariantModel, MultiplicityVector, \
    SymmetryAdaptedBasis, _chain_factors, _checked, _element_row, \
    _orbit_digits, _sum_images, builtin_model, clifford_reduction, \
    label_classes, orbit_stages, symmetry_adapted_basis
from edgeinv.reconstruct import WARN_NO_UNIQUE_PASS, WARN_RANK_NOT_GENERIC, \
    WARN_TIE, ReconstructionResult, data_driven_tol
from edgeinv.scores import DEFAULT_RANK_TOL, DEFAULT_SCORE_TOL, SplitScore, \
    SplitTable, _check_tol, all_bipartitions, genericity_check, \
    score_splits, side_mask
from edgeinv.simulate import Alignment, EvolutionaryPresentation, \
    _default_root, _oriented_edges, default_taxa
from edgeinv.tensors import CharacterTransform, PatternTensor, RankVector, \
    _sides, block_spectra, character_flattening, pattern_codes, \
    pattern_strings, stack_ranks
from edgeinv.trees import Bipartition, TreeTopology, from_newick, \
    splits_compatible, to_newick, tree_from_splits

MAX_DENSE_POWER = 6     # dense k^l x k^l projector guard


# ---------------------------------------------------------------------------
# The plain flattening, and the thin flattening of one split
# ---------------------------------------------------------------------------

def flatten(psi: PatternTensor, split) -> np.ndarray:
    """Reshape along a bipartition: rows are joint states of the first side
    (for a Bipartition, the side containing leaf 1; leaves ascending), columns
    the other side.  A pure index permutation; the Frobenius norm equals the
    tensor norm."""
    side1, side2 = _sides(psi, split)
    pos = {lab: i for i, lab in enumerate(psi.labels)}
    axes = [pos[x] for x in side1] + [pos[x] for x in side2]
    return psi.nd().transpose(axes).reshape(K ** len(side1),
                                            K ** len(side2))


@dataclass(frozen=True)
class ThinFlattening:
    """Per-irrep multiplicity-space blocks of a flattening along a split.

    blocks[t] has shape m(l1)_t x m(l2)_t (possibly empty) and is the copy
    r=1 block, in the multiplicity-space bases of ``character_flattening``.
    Other orthonormal bases of those spaces give other entries but the same
    singular values (``spectra``, hence all ranks and scores downstream).
    """

    split: object
    model_name: str
    blocks: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    row_mult: MultiplicityVector
    col_mult: MultiplicityVector

    @cached_property
    def spectra(self) -> tuple[np.ndarray, ...]:
        """Each block's singular values, descending; empty for empty blocks."""
        return tuple(map(block_spectra, self.blocks))


def thin_rank(tf: ThinFlattening, tol: float = 1e-7) -> RankVector:
    """Blockwise numerical rank of one thin flattening (``stack_ranks``)."""
    return stack_ranks([s[None] for s in tf.spectra], tf.dims, tol)[0]


# ---------------------------------------------------------------------------
# The sparse-basis route: the reference for character_flattening
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def basis_matrix(basis: SymmetryAdaptedBasis) -> sparse.csc_matrix:
    """The basis as a scipy CSC matrix."""
    size = K ** basis.power
    return sparse.csc_matrix(basis.csc_arrays, shape=(size, size))


@lru_cache(maxsize=32)
def first_copies(basis: SymmetryAdaptedBasis) -> tuple:
    """Per irrep t, the copy-0 columns transposed (m_t x k^l, CSR), so that
    ``first_copies(basis)[t] @ v`` holds the copy-0 coordinates of v."""
    return tuple(basis_matrix(basis)[:, basis.columns(t, 0)].T.tocsr()
                 for t in range(basis.model.n_irreps))


@dataclass(frozen=True)
class SparseThinFlattening(ThinFlattening):
    """A ``ThinFlattening`` in the sparse adapted bases, with two invariance
    diagnostics computed on first access from the full transformed
    flattening: ``leakage``, the largest transformed entry outside all
    (irrep, copy) diagonal blocks, and ``copy_disagreement``, the largest
    entrywise gap between any copy's block and the first.  Both vanish (to
    1e-10) on exactly invariant tensors."""

    psi: PatternTensor = field(repr=False, compare=False)
    model: EquivariantModel = field(repr=False, compare=False)

    @property
    def leakage(self) -> float:
        return self._invariance_gaps[0]

    @property
    def copy_disagreement(self) -> float:
        return self._invariance_gaps[1]

    @cached_property
    def _invariance_gaps(self) -> tuple[float, float]:
        """(leakage, copy_disagreement) of the full transformed flattening."""
        basis1 = symmetry_adapted_basis(self.model, self.row_mult.power)
        basis2 = symmetry_adapted_basis(self.model, self.col_mult.power)
        half = basis_matrix(basis1).T @ flatten(self.psi, self.split)
        transformed = np.asarray((basis_matrix(basis2).T @ half.T).T)
        off_block = np.abs(transformed)
        disagreement = 0.0
        for t, d in enumerate(self.dims):
            for r in range(d):
                rows = basis1.columns(t, r)
                cols = basis2.columns(t, r)
                block = transformed[rows.start:rows.stop, cols.start:cols.stop]
                off_block[rows.start:rows.stop, cols.start:cols.stop] = 0.0
                if not r:
                    first = block
                elif block.size:
                    disagreement = max(disagreement, float(
                        np.abs(block - first).max()))
        leakage = float(off_block.max()) if off_block.size else 0.0
        return leakage, disagreement


def thin_flatten(psi: PatternTensor, split,
                 model: EquivariantModel) -> SparseThinFlattening:
    """Transform the flattening into the symmetry-adapted bases of the two
    sides and return the per-irrep first-copy blocks; only those blocks are
    computed.  ``character_flattening`` takes the blocks of the group
    average; on an invariant tensor those differ from these by orthogonal
    changes of basis within each multiplicity space, so their spectra
    agree."""
    side1, side2 = _sides(psi, split)
    basis1 = symmetry_adapted_basis(model, len(side1))
    basis2 = symmetry_adapted_basis(model, len(side2))
    mat = flatten(psi, split)
    blocks = []
    for rows, cols in zip(first_copies(basis1), first_copies(basis2)):
        # block[i, j] = (copy-0 column i of basis1) . M . (column j of basis2)
        half = rows @ mat
        blocks.append(np.ascontiguousarray((cols @ half.T).T))
    return SparseThinFlattening(split, model.name, tuple(blocks), model.dims,
                                basis1.multiplicities, basis2.multiplicities,
                                psi, model)


def stack_of_one(psi: PatternTensor, split,
                 model: EquivariantModel) -> ThinFlattening:
    """``character_flattening`` along one split, as a ``ThinFlattening``."""
    side1, side2 = _sides(psi, split)
    blocks = dict(character_flattening(psi, [split], model))
    return ThinFlattening(split, model.name,
                          tuple(blocks[t][0] for t in range(model.n_irreps)),
                          model.dims, model.multiplicities(len(side1)),
                          model.multiplicities(len(side2)))


# ---------------------------------------------------------------------------
# The per-split route: the reference for the stacked split table
# ---------------------------------------------------------------------------

def per_split_blocks(psi: PatternTensor, split,
                     model: EquivariantModel) -> tuple[np.ndarray, ...]:
    """The first-copy blocks along one split one split at a time: the whole
    character transform under the label group by
    ``character_transform_loop``, its class of label 0 replaced by the
    model's ``CharacterTransform.kept`` (the same class for the abelian
    models; averaged over the stabiliser for K80 and JC69), a
    two-dimensional gather of it by flat pattern indices per block, and a
    compression of each block on both sides on its own
    (``first_copy_block``)."""
    side1, side2 = _sides(psi, split)
    reduction = clifford_reduction(model)
    labels = sorted(psi.labels)
    coeffs = character_transform_loop(psi, reduction.labels).reshape(
        (K,) * psi.n).transpose(np.argsort(psi.labels)).reshape(-1)
    coeffs[label_classes(reduction.labels, psi.n)[0]] = \
        CharacterTransform(psi, model).kept.reshape(-1)
    strides = {lab: K ** (psi.n - 1 - i) * np.arange(K)
               for i, lab in enumerate(labels)}

    def offsets(side):
        out = np.zeros(1, dtype=np.int64)
        for lab in side:
            out = (out[:, None] + strides[lab]).ravel()
        return out

    rows, cols = offsets(side1), offsets(side2)
    members1 = label_classes(reduction.labels, len(side1))
    members2 = label_classes(reduction.labels, len(side2))
    return tuple(
        first_copy_block(coeffs.take(np.add.outer(rows[members1[c]],
                                                  cols[members2[c]]))[None],
                         pieces1, pieces2)[0]
        for c, pieces1, pieces2 in zip(reduction.irrep_labels,
                                       reduction.first_copies(len(side1)),
                                       reduction.first_copies(len(side2))))


def first_copy_block(blocks: np.ndarray, rows, cols) -> np.ndarray:
    """P1^T B P2 for each block B of a stack, for first-copy pieces
    ``(index, weight)`` of ``CliffordReduction.first_copies``; ``None``
    pieces are identities.  The two-sided compression, which holds for any
    block; ``character_flattening`` compresses one side only."""
    if rows is None:
        return blocks
    for index, weight in (rows, cols):
        # compress the first block axis, then turn the other one to it
        blocks = np.matmul(weight[:, None, :], blocks.take(index, axis=1)
                           )[:, :, 0].swapaxes(1, 2)
    return blocks


def fit_score_oracle(psi: PatternTensor, model: EquivariantModel) -> float:
    """``model_fit_score`` by its formula, ||psi - avg(psi)|| / ||psi||,
    with a difference array of its own and both sums of squares exactly
    rounded: a BLAS dot product over 4^10 entries is up to 8e-16 off."""
    gap = psi.values - averaged(psi, model).values
    return math.sqrt(math.fsum((gap * gap).tolist())
                     / math.fsum((psi.values * psi.values).tolist()))


def transposition_group() -> EquivariantModel:
    """{1, (AC)}, with SSM's irreps: a group of order 2 that neither SSM,
    K81 nor K80 holds, for models that do not nest."""
    return EquivariantModel("AC", [(0, 1, 2, 3), (1, 0, 2, 3)],
                            builtin_model("SSM").irreps)


def per_split_score(psi: PatternTensor, split: Bipartition,
                    model: EquivariantModel) -> SplitScore:
    """``split_score`` one split at a time: trivial splits score 0 by
    construction, each block gets its own SVD, and the ranks count each
    spectrum against the largest singular value of the split."""
    target = model.multiplicities(1)
    if split.is_trivial:
        return SplitScore(split, tuple(0.0 for _ in target.entries), 0.0,
                          target, None)
    scored = averaged(psi, model)
    spectra = [np.linalg.svd(b, compute_uv=False) if b.size else np.empty(0)
               for b in per_split_blocks(scored, split, model)]
    residuals = tuple(float(np.sqrt((spectrum[m:] ** 2).sum()))
                      for spectrum, m in zip(spectra, target))
    norm = scored.norm()
    weighted = sum(d * r * r for d, r in zip(model.dims, residuals))
    score = float(np.sqrt(weighted) / norm) if norm > 0 else 0.0
    sigma_max = max((s[0] for s in spectra if s.size), default=0.0)
    entries = tuple(int((s > DEFAULT_RANK_TOL * sigma_max).sum())
                    if sigma_max else 0 for s in spectra)
    achieved = RankVector(entries, DEFAULT_RANK_TOL, sum(entries),
                          sum(d * r for d, r in zip(model.dims, entries)))
    return SplitScore(split, residuals, score, target, achieved)


# ---------------------------------------------------------------------------
# The topology scan: the reference for reconstruct_exhaustive
# ---------------------------------------------------------------------------

def enumerate_trivalent_topologies(n: int) -> list[TreeTopology]:
    """All (2n-5)!! leaf-labelled trivalent topologies, in a fixed order.

    The order is the leaf-insertion order: leaf i+1 is grafted onto every
    edge of every tree on i leaves, edges taken in sorted order.
    """
    if not 3 <= n <= 10:
        raise ValueError(f"leaf count {n} outside supported range 3..10")
    # star on leaves 1,2,3 with center n+1
    trees = [(((1, n + 1), (2, n + 1), (3, n + 1)), n + 1)]
    for leaf in range(4, n + 1):
        grown = []
        for edges, top_id in trees:
            mid = top_id + 1
            for i, (u, v) in enumerate(edges):
                new_edges = edges[:i] + edges[i + 1:] + (
                    (u, mid), (mid, v), (mid, leaf))
                grown.append((new_edges, mid))
        trees = grown
    return [TreeTopology(n, edges) for edges, _ in trees]


@lru_cache(maxsize=None)
def enumerated(n: int) -> tuple[TreeTopology, ...]:
    """``enumerate_trivalent_topologies(n)``, built once, so that each tree
    computes its splits once."""
    return tuple(enumerate_trivalent_topologies(n))


def rescored_table(psi: PatternTensor, model: EquivariantModel,
                   scores: Mapping[Bipartition, float]) -> SplitTable:
    """A split table of ``psi`` holding the splits of ``scores``, each with
    its score replaced by the one given there, so that its queries answer
    for made-up scores."""
    table = SplitTable(psi, model, map(side_mask, scores))
    for split, score in scores.items():
        mask = side_mask(split)
        s = table[mask]
        table.scored[mask] = SplitScore(s.split, s.per_block_residuals, score,
                                        s.expected, s.achieved)
    return table


def scan_exhaustive(psi: PatternTensor, model: EquivariantModel,
                    tol: Optional[float] = DEFAULT_SCORE_TOL,
                    check_genericity: bool = True
                    ) -> tuple[ReconstructionResult, tuple[TreeTopology, ...]]:
    """``reconstruct_exhaustive`` by scoring every enumerated topology.

    Returns the result and the topologies whose totals lie within 1e-15 of
    the least one.  Without a unique passer the result's tree is the first
    of those in enumeration order.  ``tol=None`` takes the median over every
    topology's interior split scores, each split counted once per topology.
    """
    _check_tol(tol)
    n = psi.n
    table = score_splits(psi, model, all_bipartitions(n, nontrivial_only=True))
    topologies = enumerated(n)
    tree_scores = [tuple(table[s] for s in tree.interior_splits())
                   for tree in topologies]
    if tol is None:
        tol = data_driven_tol(s.score for scores in tree_scores
                              for s in scores)
    totals = [sum(s.score for s in scores) for scores in tree_scores]
    passers = [i for i, scores in enumerate(tree_scores)
               if all(s.score <= tol for s in scores)]
    best = min(totals)
    tied = [i for i, total in enumerate(totals) if total <= best + 1e-15]

    warnings: list[str] = []
    if len(passers) == 1:
        winner = passers[0]
    else:
        warnings.append(WARN_NO_UNIQUE_PASS)
        if passers:
            warnings.append(f"{len(passers)} topologies pass at tol {tol:g}")
        if len(tied) > 1:
            warnings.append(WARN_TIE)
        winner = tied[0]

    genericity: tuple[str, ...] = ()
    if check_genericity:
        lines = genericity_check(psi, model, topologies[winner]).warnings()
        genericity = (WARN_RANK_NOT_GENERIC, *lines) if lines else ()
    result = ReconstructionResult(
        method="exhaustive", tree=topologies[winner],
        chosen_splits=tree_scores[winner], rejected_splits=(),
        warnings=tuple(warnings), genericity_warnings=genericity,
        passers=len(passers), tol=tol)
    return result, tuple(topologies[i] for i in tied)


# ---------------------------------------------------------------------------
# Greedy selection from every split: the reference for reconstruct_by_splits
# ---------------------------------------------------------------------------

def greedy_splits_tree(psi: PatternTensor, model: EquivariantModel
                       ) -> TreeTopology:
    """The tree of the lowest-scoring mutually compatible splits: every
    nontrivial bipartition is scored, and ascending by score (ties by
    ``Bipartition.sort_key``) each is kept when compatible with everything
    already kept, until n-3 survive."""
    n = psi.n
    table = score_splits(psi, model, all_bipartitions(n, nontrivial_only=True))
    chosen = []
    for candidate in sorted(table.values(),
                            key=lambda s: (s.score, s.split.sort_key())):
        if len(chosen) == n - 3:
            break
        if all(splits_compatible(candidate.split, c) for c in chosen):
            chosen.append(candidate.split)
    return tree_from_splits(chosen, n)


def reassemble_flattening(tf: ThinFlattening,
                          model: EquivariantModel) -> np.ndarray:
    """Inverse of thin_flatten for invariant input: replicate each block over
    its copies, transform back to the pattern bases."""
    l1, l2 = tf.row_mult.power, tf.col_mult.power
    basis1 = symmetry_adapted_basis(model, l1)
    basis2 = symmetry_adapted_basis(model, l2)
    size1, size2 = 4 ** l1, 4 ** l2
    transformed = np.zeros((size1, size2))
    for t, d in enumerate(model.dims):
        for r in range(d):
            rows = basis1.columns(t, r)
            cols = basis2.columns(t, r)
            transformed[rows.start:rows.stop, cols.start:cols.stop] = tf.blocks[t]
    half = basis_matrix(basis2) @ transformed.T
    return np.asarray((basis_matrix(basis1) @ half.T))


def identity_link(label_a: int, label_b: int) -> PatternTensor:
    """The two-position tensor pairing equal states, sum_b b (x) b."""
    return PatternTensor(np.eye(K).reshape(-1), (label_a, label_b))


def star_contract(phi1: PatternTensor, phi2: PatternTensor,
                  shared: Iterable[int]) -> PatternTensor:
    """Contract two tensors over a shared set of positions.

    Pairs the two tensors against every basis vector of the shared positions
    and tensors the leftovers, i.e. an inner product over the shared axes;
    the result carries the surviving labels of ``phi1`` then ``phi2``.
    With a single shared position this is the gluing of two tensors at a
    common vertex.
    """
    shared = tuple(sorted(set(shared)))
    if not shared:
        raise ValueError("shared positions must be nonempty")
    if not set(shared) <= set(phi1.labels) & set(phi2.labels):
        raise ValueError("shared positions must appear in both tensors")
    pos1 = {lab: i for i, lab in enumerate(phi1.labels)}
    pos2 = {lab: i for i, lab in enumerate(phi2.labels)}
    axes1 = [pos1[z] for z in shared]
    axes2 = [pos2[z] for z in shared]
    out = np.tensordot(phi1.nd(), phi2.nd(), axes=(axes1, axes2))
    labels = tuple(l for l in phi1.labels if l not in shared) + \
        tuple(l for l in phi2.labels if l not in shared)
    return PatternTensor(out.reshape(-1), labels)


def no_mutation_presentation(tree: TreeTopology,
                             model: Optional[EquivariantModel] = None
                             ) -> EvolutionaryPresentation:
    """Identity matrix on every edge, uniform root: all leaves copy the root
    state, so the joint distribution is the diagonal tensor at weight 1/4."""
    model = model or builtin_model("GMM")
    matrices = {edge: np.eye(4)
                for edge in _oriented_edges(tree, _default_root(tree))}
    pres = EvolutionaryPresentation(tree, _default_root(tree), matrices,
                                    np.full(4, 0.25), model, stochastic=True)
    pres.validate()
    return pres


def permute_labels(psi: PatternTensor, mapping: dict[int, int]) -> PatternTensor:
    """Rename positions through a bijection and restore canonical label order."""
    new_labels = tuple(mapping.get(l, l) for l in psi.labels)
    renamed = PatternTensor(psi.values, new_labels, psi.stochastic)
    return renamed.with_canonical_labels()


def pattern_maps(model: EquivariantModel, power: int) -> np.ndarray:
    """Array of shape (|G|, k^l): row e sends pattern index p to g_e . p,
    where elements act diagonally on the l digits of p."""
    return _element_row(np.array(model.elements), power,
                        np.empty((model.order, K ** power), dtype=np.int64))


def invariant_projector(model: EquivariantModel, power: int) -> np.ndarray:
    """Dense orthogonal projector onto the trivial isotypic component of the
    l-th tensor power; rank equals the trivial-character multiplicity."""
    if not 1 <= power <= MAX_DENSE_POWER:
        raise ValueError(f"dense projector guarded to power <= {MAX_DENSE_POWER}")
    size = 4 ** power
    maps = pattern_maps(model, power)
    proj = np.zeros((size, size))
    cols = np.arange(size)
    for row in maps:
        proj[row, cols] += 1.0 / model.order
    return proj


def flattening_rank(mat: np.ndarray, tol: float = 1e-7) -> int:
    """Numerical rank of a plain flattening under the thin-rank rule:
    singular values above tol times the largest count."""
    spectrum = np.linalg.svd(mat, compute_uv=False)
    if spectrum.size == 0 or spectrum[0] == 0.0:
        return 0
    return int((spectrum > tol * spectrum[0]).sum())


def presentation_to_json(pres: EvolutionaryPresentation,
                         names: Optional[Mapping[int, str]] = None) -> str:
    return json.dumps({
        "model": pres.model.name,
        "tree": to_newick(pres.tree, names),
        "root": pres.root,
        "stochastic": pres.stochastic,
        "root_distribution": pres.root_distribution.tolist(),
        "edges": [{"parent": u, "child": v, "matrix": m.tolist()}
                  for (u, v), m in sorted(pres.edge_matrices.items())],
    })


def presentation_from_json(text: str) -> EvolutionaryPresentation:
    doc = json.loads(text)
    tree, _ = from_newick(doc["tree"])
    matrices = {(e["parent"], e["child"]): np.array(e["matrix"], dtype=float)
                for e in doc["edges"]}
    pres = EvolutionaryPresentation(
        tree, doc["root"], matrices,
        np.array(doc["root_distribution"], dtype=float),
        builtin_model(doc["model"]), doc.get("stochastic", True))
    pres.validate()
    return pres


def lines_stripped_one_by_one(text: str) -> str:
    """The FASTA line pass that ``simulate._stripped_lines`` replaced: every
    line of ``str.splitlines`` stripped on its own, joined between two
    "\n"."""
    return "\n".join(["", *map(str.strip, text.splitlines()), ""])


def lines_stripped_break_by_break(text: str) -> str:
    """``simulate._stripped_lines`` by its definition, byte for byte: every
    line break a "\n" ("\r\n" two), between two "\n", each line stripped."""
    for mark in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        text = text.replace(mark, "\n")
    return "\n".join(map(str.strip, f"\n{text}\n".split("\n")))


def fasta_column_counts(seqs: list[str], ambiguous: str) -> dict[str, int]:
    """Pattern counts of equal-length upper-case sequences, one column at a
    time: the oracle of ``read_fasta``'s array count.  Raises ValueError with
    ``read_fasta``'s messages."""
    counts: dict[str, int] = {}
    for col, pattern in enumerate(map("".join, zip(*seqs)), start=1):
        if pattern in counts:
            counts[pattern] += 1
        elif not pattern.strip("ACGT"):  # every symbol is one of ACGT
            counts[pattern] = 1
        elif ambiguous == "error":
            raise ValueError(f"non-ACGT symbol in column {col}")
    if not counts:
        raise ValueError("no usable columns remain")
    return counts


def alignment_from_counts(taxa: tuple[str, ...],
                          counts: Mapping[str, int]) -> Alignment:
    """The alignment whose sites are each pattern repeated by its count."""
    codes = pattern_codes(list(counts), len(taxa))
    repeats = np.fromiter(counts.values(), np.int64, len(counts))
    return Alignment(taxa, np.repeat(codes, repeats, axis=1))


def fasta_by_pattern_strings(psi: PatternTensor, sites: int,
                             seed: int) -> str:
    """The FASTA text of a multinomial sample by way of pattern strings:
    the draws become a string -> count dict, and the sorted patterns,
    each repeated by its count, become the rows of 70 letters a line.  The
    oracle of ``write_fasta(sample_alignment(psi, sites, seed))``."""
    probs = np.clip(psi.values, 0.0, None)
    draws = np.random.default_rng(seed).multinomial(sites,
                                                    probs / probs.sum())
    drawn = np.flatnonzero(draws)
    counts = dict(zip(pattern_strings(drawn, psi.n), draws[drawn].tolist()))
    # the sites, one pattern after another: taxon i's letters are every
    # n-th character from i
    columns = "".join(p * counts[p] for p in sorted(counts))
    lines = []
    for i, name in enumerate(default_taxa(psi.n)):
        seq = columns[i::psi.n]
        lines.append(f">{name}")
        lines.extend(seq[start:start + 70] for start in range(0, len(seq), 70))
    return "\n".join(lines) + "\n"


def tensor_to_bytes(psi: PatternTensor) -> bytes:
    """The binary container of ``psi`` as one bytes object, with a copy of
    its values: the reference for ``save_tensor``."""
    canonical = psi.with_canonical_labels()
    header = b"EQPT" + struct.pack("<HHHH", 1, canonical.n, K,
                                   int(canonical.stochastic))
    return header + canonical.values.astype("<f8").tobytes()


def character_transform_loop(psi: PatternTensor,
                             model: EquivariantModel) -> np.ndarray:
    """The whole character transform by n matrix products, each into a
    fresh array: the oracle of ``CharacterTransform``, which keeps its
    class of label 0."""
    matrix = symmetry_adapted_basis(model, 1).dense()
    coeffs = psi.values
    for _ in range(psi.n):
        coeffs = coeffs.reshape(K, -1).T @ matrix
    return coeffs.reshape(-1)


# ---------------------------------------------------------------------------
# The group average over whole tensors
# ---------------------------------------------------------------------------

def group_average(values: np.ndarray, model: EquivariantModel,
                  power: int) -> np.ndarray:
    """Orthogonal projection of a flat k^l tensor onto the G-invariants.

    With T_g the gather psi -> psi[g . p] and the factors C_i of G, each
    {1, c} or {1, c, c^2} (``_chain_factors``), sum_G T_g = (sum_{C_k} T)
    ... (sum_{C_1} T): each C_i adds its gathers of the sum to itself, so
    JC69 takes 5 gathers, K80 3, K81 2 and SSM 1.  Element g moves the
    block of patterns with high digits h to block g . h, so the sums run
    over all blocks at once (``_sum_images``), with the blocks of
    ``_orbit_digits`` low digits that ``orbit_stages`` uses: an order-3
    step sums each 3-cycle of blocks from its least block, which depends
    on that split."""
    if model.order == 1:
        return np.asarray(values, dtype=float)
    values = _checked(values, power)
    factors, _ = _chain_factors((model,))
    low = min(power, _orbit_digits(model))
    acc = values.reshape(-1, K ** low).copy()

    def rows(factor):  # the rows of c, ..., c^(m-1), stacked
        g = np.array(factor[1:])
        return (_element_row(g, low, np.empty((len(g), K ** low), np.int64)),
                _element_row(g, power - low,
                             np.empty((len(g), len(acc)), np.int64)))

    _sum_images(acc, map(rows, factors),
                np.empty((max(map(len, factors)) - 1, K ** low)))
    acc /= model.order
    return acc.reshape(-1)


def orbit_averages(values: np.ndarray, model: EquivariantModel, power: int
                   ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each block of ``values`` beside its group average: ``orbit_stages``
    for ``model`` alone, whose factors are ``_chain_factors((model,))``."""
    for _, block, average in orbit_stages(values, (model,), power):
        yield block, average


def averaged(psi: PatternTensor, model: EquivariantModel) -> PatternTensor:
    """``psi`` projected onto the G-invariant tensors by ``group_average``;
    the trivial group gives ``psi`` back."""
    if model.order == 1:
        return psi
    return PatternTensor(group_average(psi.values, model, psi.n), psi.labels,
                         psi.stochastic)


# ---------------------------------------------------------------------------
# Group tables by brute force, and digests of tables
# ---------------------------------------------------------------------------

def compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """g after h."""
    return tuple(g[i] for i in h)


def pairwise_closure(generators) -> tuple[tuple[int, ...], ...]:
    """The group generated, sorted: every product of two elements found so
    far is added until none is new."""
    elems = {(0, 1, 2, 3), *generators}
    while True:
        grown = elems | {compose(g, h) for g in elems for h in elems}
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def conjugation_classes(elements) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Conjugacy classes by h g h^-1 over every pair, each sorted, ordered
    by size and then least element, as ``EquivariantModel`` orders them."""
    def inverse(h):
        return tuple(sorted(range(len(h)), key=h.__getitem__))

    classes = {tuple(sorted({compose(compose(h, g), inverse(h))
                             for h in elements}))
               for g in elements}
    return tuple(sorted(classes, key=lambda c: (len(c), c[0])))


def table_digest(obj) -> str:
    """sha256 of nested tuples of arrays, ints, strings and None: each array
    by dtype, shape and bytes, so a changed bit, type or layout shows."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(f"({len(x)}".encode())
            for y in x:
                feed(y)
            h.update(b")")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter that imports this edgeinv."""
    src = str(Path(edgeinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
