"""Equivariant Markov presentations on trees and tensor/alignment simulation.

An evolutionary presentation assigns a 4x4 matrix to every edge; the matrix
must commute with every group element of the model (equivalently, it is
constant on the G-orbits of (row, column) positions, which is exactly the
letter pattern the classical substitution matrices display).  Entries are
indexed A(child_state, parent_state), columns summing to 1 in stochastic
mode, with an explicit root distribution defaulting to uniform.

The leaf joint distribution is computed by post-order message passing:
each vertex carries a table over (joint leaf pattern below it, own state),
so the whole tensor costs O(k^n * n * k) rather than a per-pattern sum over
interior states.  With the uniform root every built-in model makes the
result independent of where the tree was rooted (matrices are transposed
when an edge is traversed against its stored orientation).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from .groups import K, EquivariantModel
from .records import Record
from .tensors import AMBIGUOUS, FOLDED_CODES, LETTERS, MAX_LEAVES, \
    PatternTensor, pattern_digits, pattern_indices, pattern_strings
from .trees import TreeTopology

EQUIVARIANCE_TOL = 1e-12


def position_orbits(model: EquivariantModel) -> tuple[tuple[tuple[int, int], ...], ...]:
    """G-orbits of matrix positions under g.(row, col) = (g row, g col).

    One free parameter per orbit is what equivariance allows, so the classic
    matrix shapes (2 letters for JC69, 3 for K80, 4 for K81, 8 for the strand
    model, 16 for the general model) emerge from the group itself.
    """
    seen: set[tuple[int, int]] = set()
    orbits = []
    for row in range(4):
        for col in range(4):
            if (row, col) in seen:
                continue
            orbit = sorted({(g[row], g[col]) for g in model.elements})
            seen.update(orbit)
            orbits.append(tuple(orbit))
    return tuple(orbits)


def assert_equivariant(matrix: np.ndarray, model: EquivariantModel) -> None:
    for g in model.elements:
        perm = np.array(g)
        rho = np.zeros((4, 4))
        rho[perm, np.arange(4)] = 1.0
        if np.abs(matrix @ rho - rho @ matrix).max() > EQUIVARIANCE_TOL:
            raise ValueError("matrix does not commute with the group action")


class EvolutionaryPresentation(Record):
    """Edge matrices plus a root distribution on a rooted orientation.

    ``edge_matrices`` is keyed by the directed pair (parent, child) of the
    stored orientation; traversal against it uses the transpose.
    """

    tree: TreeTopology
    root: int
    edge_matrices: Mapping[tuple[int, int], np.ndarray]
    root_distribution: np.ndarray
    model: EquivariantModel
    stochastic: bool = True

    def matrix_for(self, parent: int, child: int) -> np.ndarray:
        stored = self.edge_matrices.get((parent, child))
        if stored is not None:
            return stored
        return self.edge_matrices[(child, parent)].T

    def validate(self) -> None:
        for mat in self.edge_matrices.values():
            assert_equivariant(mat, self.model)
            if self.stochastic:
                if mat.min() < 0 or np.abs(mat.sum(axis=0) - 1.0).max() > 1e-12:
                    raise ValueError("stochastic edge matrix must have "
                                     "non-negative columns summing to 1")
        if self.stochastic:
            pi = self.root_distribution
            if pi.min() < 0 or abs(pi.sum() - 1.0) > 1e-12:
                raise ValueError("root distribution must be a distribution")
            avg = pi[np.array(self.model.elements)].mean(axis=0)
            if np.abs(avg - pi).max() > 1e-12:
                raise ValueError("root distribution must be G-invariant")


def _default_root(tree: TreeTopology) -> int:
    interior = tree.interior_vertices
    return min(interior) if interior else 1


def _oriented_edges(tree: TreeTopology, root: int) -> list[tuple[int, int]]:
    """Edges as (parent, child) pairs, root first, deterministic order."""
    out = []
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in tree.adjacency[v]:
            if w not in seen:
                seen.add(w)
                out.append((v, w))
                stack.append(w)
    return out


def random_presentation(model: EquivariantModel, tree: TreeTopology,
                        seed: int, concentration: float = 10.0
                        ) -> EvolutionaryPresentation:
    """Draw a stochastic presentation, one free weight per position orbit.

    Diagonal orbits draw from U(1, 2) while off-diagonal orbit weights draw
    from U(0, 1)/concentration, then columns are renormalized; the default
    concentration keeps the matrices diagonally dominant and the simulated
    tensors away from degenerate rank loci.  Deterministic per seed.
    """
    if not concentration > 0:  # NaN included
        raise ValueError("concentration must be positive")
    if not np.isfinite(K / concentration):  # a column's sum of weights
        raise ValueError(f"concentration {concentration!r} is too small: "
                         f"the off-diagonal weights overflow float64")
    rng = np.random.default_rng(seed)
    orbits = position_orbits(model)
    matrices = {}
    for edge in _oriented_edges(tree, _default_root(tree)):
        mat = np.zeros((4, 4))
        for orbit in orbits:
            if orbit[0][0] == orbit[0][1]:
                weight = rng.uniform(1.0, 2.0)
            else:
                weight = rng.uniform(0.0, 1.0) / concentration
            for row, col in orbit:
                mat[row, col] = weight
        mat /= mat.sum(axis=0, keepdims=True)
        matrices[edge] = mat
    pres = EvolutionaryPresentation(tree, _default_root(tree), matrices,
                                    np.full(4, 0.25), model, stochastic=True)
    pres.validate()
    return pres


def joint_distribution(pres: EvolutionaryPresentation,
                       root: Optional[int] = None) -> PatternTensor:
    """The joint leaf-state tensor of a presentation.

    ``root`` overrides the presentation's rooting (used to check rooting
    independence); matrices along reversed edges are transposed.
    """
    tree = pres.tree
    if tree.n_leaves > MAX_LEAVES:  # before the table of every pattern
        raise ValueError(f"{tree.n_leaves} positions exceed the dense cap "
                         f"{MAX_LEAVES}")
    if tree.n_leaves == 1:
        return PatternTensor(pres.root_distribution.copy(), (1,),
                             stochastic=pres.stochastic)
    start = pres.root if root is None else root

    def descend(v: int, parent: Optional[int]) -> tuple[np.ndarray, list[int]]:
        """Table over (joint pattern of leaves below v, state at v)."""
        children = [w for w in tree.adjacency[v] if w != parent]
        if not children:  # leaf
            return np.eye(4), [v]
        acc = np.ones((1, 4))
        labels: list[int] = []
        for child in children:
            table, child_labels = descend(child, v)
            through = table @ pres.matrix_for(v, child)
            acc = np.einsum("pk,qk->pqk", acc,
                            through).reshape(-1, 4)
            labels.extend(child_labels)
        return acc, labels

    table, labels = descend(start, None)
    if start <= tree.n_leaves:
        # rooted at a leaf: its own state is the root state, so the state
        # axis becomes that leaf's pattern axis instead of being summed out
        values = (table * pres.root_distribution[None, :]).reshape(-1)
        labels = labels + [start]
    else:
        values = table @ pres.root_distribution
    tensor = PatternTensor(values, tuple(labels), stochastic=False)
    tensor = tensor.with_canonical_labels()
    if pres.stochastic:
        tensor = PatternTensor(tensor.values, tensor.labels, stochastic=True)
    return tensor


# ---------------------------------------------------------------------------
# Alignments
# ---------------------------------------------------------------------------

class Alignment(Record, eq=False):
    """Sites over named taxa: ``codes[i, s]`` is the ACGT state code (0..3)
    of taxon i at site s, stored read-only.  At most ``MAX_LEAVES`` taxa,
    as a site-pattern tensor of more does not fit."""

    taxa: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        taxa, codes = tuple(self.taxa), np.asarray(self.codes)
        if codes.ndim != 2 or len(codes) != len(taxa):
            raise ValueError(f"expected one row of codes per taxon "
                             f"({len(taxa)}), got shape {codes.shape}")
        if len(taxa) > MAX_LEAVES:
            raise ValueError(f"{len(taxa)} positions outside the dense "
                             f"range 0..{MAX_LEAVES}")
        if codes.dtype.kind not in "iu":
            raise ValueError("state codes must be integers")
        # the range before the cast, which would wrap 256 to A
        if codes.size and (codes.min() < 0 or codes.max() >= K):
            raise ValueError("state codes must lie in 0..3")
        codes = codes.astype(np.uint8, copy=False).view()
        codes.setflags(write=False)  # the view's flag, not the caller's
        self.__dict__.update(taxa=taxa, codes=codes)

    @property
    def n_taxa(self) -> int:
        return len(self.taxa)

    @property
    def n_sites(self) -> int:
        return self.codes.shape[1]

    @property
    def counts(self) -> dict[str, int]:
        """The site-pattern counts keyed by ACGT string, in string order:
        built on every call, for display and checks."""
        patterns, counts = np.unique(pattern_indices(self.codes),
                                     return_counts=True)
        return dict(zip(pattern_strings(patterns, self.n_taxa),
                        counts.tolist()))


def default_taxa(n: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, n + 1))


def sample_alignment(psi: PatternTensor, sites: int, seed: int,
                     taxa: Optional[Iterable[str]] = None) -> Alignment:
    """Multinomial sample of i.i.d. site patterns from a stochastic tensor.
    The sites come in pattern order, each drawn pattern repeated by its
    count."""
    if not psi.stochastic:
        raise ValueError("sampling requires a stochastic tensor")
    if sites < 0:
        raise ValueError("site count must be non-negative")
    taxa = tuple(taxa) if taxa is not None else default_taxa(psi.n)
    if len(taxa) != psi.n:
        raise ValueError("taxa count must match the tensor")
    rng = np.random.default_rng(seed)
    probs = np.clip(psi.values, 0.0, None)
    probs = probs / probs.sum()
    draws = rng.multinomial(sites, probs)
    drawn = np.flatnonzero(draws)
    return Alignment(taxa, np.repeat(pattern_digits(drawn, psi.n),
                                     draws[drawn], axis=1))


# ---------------------------------------------------------------------------
# FASTA
# ---------------------------------------------------------------------------

# the line breaks of str.splitlines besides "\n", and the other characters
# that str.strip removes
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BLANKS = ("\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
          "\u2007\u2008\u2009\u200a\u202f\u205f\u3000")


# rounds of peeling whitespace off the line ends before a text is split
# into lines instead; the usual trailing blank takes one
_PEELS = 4


def _stripped_lines(text: str) -> str:
    r"""``text`` between two "\n", with every line break a "\n" and each line
    stripped: the lines of ``str.splitlines``, each ``str.strip``-ed, with a
    blank line more where a break was "\r\n".  The text is copied once, and
    once more per kind of line break in it.  Whitespace beside a line break
    is peeled off a layer a round, one copy per kind of blank there (at the
    line ends only in the first round), for up to ``_PEELS`` rounds; a text
    with more is split into lines."""
    plain = text.isascii()
    text = f"\n{text}\n"
    for mark in _LINE_BREAKS:
        if (mark.isascii() or not plain) and mark in text:
            text = text.replace(mark, "\n")
    blanks = [blank for blank in _BLANKS
              if (blank.isascii() or not plain) and blank in text]
    for peel in range(_PEELS):
        beside = [blank for blank in blanks if _beside_a_break(text, blank)]
        if not beside:
            return text
        for blank in beside:
            # trailing blanks (the usual ones) alone first, which leaves few
            text = text.replace(blank + "\n", "\n")
            if peel:
                text = text.replace("\n" + blank, "\n")
    return "\n".join(map(str.strip, text.split("\n")))


def _beside_a_break(text: str, blank: str) -> bool:
    """Whether ``blank`` stands next to a "\n" in ``text``, which starts and
    ends with one.  The first 64 blanks are looked at one by one (a header
    holds a few); past them, both pairs are searched for."""
    at = text.find(blank)
    for _ in range(64):
        if at < 0:
            return False
        if "\n" in (text[at - 1], text[at + 1]):
            return True
        at = text.find(blank, at + 1)
    return blank + "\n" in text or "\n" + blank in text


def read_fasta(text: str, ambiguous: str = "error") -> Alignment:
    """The alignment of FASTA records: their taxa and the state codes of
    the usable columns.  Sequences must have equal lengths; every character
    is one column, with ASCII case folded, and whitespace counts only
    inside a line.  Columns holding symbols outside ACGT are dropped when
    ``ambiguous="drop"`` and rejected otherwise."""
    if ambiguous not in ("error", "drop"):
        raise ValueError("ambiguous must be 'error' or 'drop'")
    text = _stripped_lines(text)
    # a record starts at each line that starts with ">", a rare character
    heads, at = [], text.find(">")
    while at >= 0:
        if text[at - 1] == "\n":
            heads.append(at)
        at = text.find(">", at + 1)
    if text[:heads[0] if heads else None].strip():
        raise ValueError("sequence data before any FASTA header")
    taxa, seqs = [], []
    for head, end in zip(heads, heads[1:] + [len(text)]):
        eol = text.find("\n", head)
        name = text[head + 1:eol].split()
        if not name:
            raise ValueError("empty taxon name in a FASTA header")
        taxa.append(name[0])
        # one byte per character, whose code folds ASCII case; line breaks
        # are dropped
        seqs.append(text[eol:end].encode("latin-1", "replace").translate(
            FOLDED_CODES, b"\n"))
    del text
    if not taxa:
        raise ValueError("empty FASTA input")
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    if (lengths != lengths[0]).any():
        raise ValueError("sequences have unequal lengths")
    if len(set(taxa)) != len(taxa):
        raise ValueError("duplicate taxon names")
    if not lengths[0]:
        raise ValueError("alignment has no sites")
    codes = np.frombuffer(b"".join(seqs), dtype=np.uint8).reshape(
        len(seqs), -1)
    del seqs  # from here on the codes stand for the text
    bad = (codes == AMBIGUOUS).any(axis=0)
    if bad.any():
        if ambiguous == "error":
            raise ValueError(f"non-ACGT symbol in column {bad.argmax() + 1}")
        codes = codes[:, ~bad]
    if not codes.shape[1]:
        raise ValueError("no usable columns remain")
    return Alignment(tuple(taxa), codes)


def write_fasta(alignment: Alignment, width: int = 70) -> str:
    """Render an alignment; sites are emitted in the alignment's order."""
    lines = []
    for name, row in zip(alignment.taxa, alignment.codes):
        lines.append(f">{name}")
        seq = LETTERS[row].tobytes().decode("ascii")
        for start in range(0, len(seq), width):
            lines.append(seq[start:start + width])
    return "\n".join(lines) + "\n"
