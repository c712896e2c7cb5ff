"""Dense pattern tensors, pattern indexing, thin flattenings, and
multiplicity-space block ranks.

A PatternTensor stores the joint state distribution (or any real tensor) over
a set of labelled positions, flat in the canonical index order: the first
label is the most significant base-4 digit, states ordered A < C < G < T, so
index order is string order.  Text becomes state codes (``state_codes``),
codes become indices (``pattern_indices``) and indices become strings
(``pattern_strings``) in array passes; strings exist only at the edges.

The thin flattening of a tensor along a bipartition is the family of blocks
obtained by transforming the plain flattening into the symmetry-adapted bases
of both sides: for a G-invariant tensor the transformed matrix is block
diagonal with one block per (irrep, copy) pair and identical blocks across
copies, so only the first copy is kept.

One route computes the blocks, ``character_flattening``, for every model
and every caller, for a stack of splits with equal side sizes at once (a
single split is a stack of one).  It reads them from the tensor's one
character transform: the one-site adapted basis of an abelian label group
applied along every axis (the model's own for GMM, SSM and K81, K81's for
K80 and JC69).  A
transformed pattern lies in the isotypic component of the product of its
digits' characters, its label, so the block of irrep t is a gather of the
side-1 patterns of label c_t against the side-2 patterns of label c_t,
compressed on both sides to the first copy of t by a small change of basis
for the stabiliser of c_t (``groups.CliffordReduction``).  c_t is the first
label that D_t(v) e_A touches, read off the irrep matrices; for the abelian
models it is t itself and the change of basis is the identity.  No basis
above power 1 is built.
"""

from __future__ import annotations

import json
import operator
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from .groups import (
    K,
    STATES,
    EquivariantModel,
    clifford_reduction,
    group_average,
    label_classes,
    symmetry_adapted_basis,
)
from .trees import Bipartition

MAX_LEAVES = 12
# the most entries of the largest label block of a stack of splits
STACK_ENTRIES = 2 ** 14
AMBIGUOUS = K    # the state code of every symbol outside ACGT
# the state code of each latin-1 character, as a bytes.translate table
_CODES = bytes(STATES.index(ch) if ch in STATES else AMBIGUOUS
               for ch in map(chr, range(256)))
_LETTERS = np.frombuffer(STATES.encode(), dtype=np.uint8)

STOCHASTIC_NEG_TOL = 1e-12
STOCHASTIC_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PatternTensor:
    """A real tensor over labelled positions, 4 states each.

    values : flat array of length 4**n in canonical index order.
    labels : position labels, most significant first; leaf tensors use 1..n.
    stochastic : set when the entries form a probability distribution
        (non-negative up to 1e-12, total 1 up to 1e-9; checked on creation).
    """

    values: np.ndarray
    labels: tuple[int, ...]
    stochastic: bool = False
    # model name -> CharacterTransform of these values, filled on first use
    _transforms: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # the model whose group average these values are, set by ``averaged``
    _averaged_for: EquivariantModel | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        n = len(self.labels)
        if n > MAX_LEAVES:
            raise ValueError(f"{n} positions exceed the dense cap {MAX_LEAVES}")
        if values.shape != (K ** n,):
            raise ValueError(f"expected {K ** n} entries for {n} positions,"
                             f" got {values.shape}")
        total = values.sum()  # an inf or nan entry makes it non-finite
        if not (np.isfinite(total) or np.isfinite(values).all()):
            raise ValueError("tensor entries must be finite")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate position labels")
        if self.stochastic:
            if values.min() < -STOCHASTIC_NEG_TOL:
                raise ValueError("stochastic tensor has a negative entry")
            if abs(total - 1.0) > STOCHASTIC_SUM_TOL:
                raise ValueError("stochastic tensor does not sum to 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def nd(self) -> np.ndarray:
        return self.values.reshape((K,) * self.n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def with_canonical_labels(self) -> "PatternTensor":
        """Reorder axes so labels are ascending."""
        order = np.argsort(self.labels)
        if np.array_equal(order, np.arange(self.n)):
            return self
        values = self.nd().transpose(order).reshape(-1)
        return PatternTensor(values, tuple(sorted(self.labels)),
                             self.stochastic)

    @classmethod
    def from_pattern_counts(cls, counts: dict[str, float], n: int,
                            stochastic: bool = False) -> "PatternTensor":
        if not 0 <= n <= MAX_LEAVES:  # before allocating 4**n entries
            raise ValueError(f"{n} positions outside the dense range "
                             f"0..{MAX_LEAVES}")
        patterns = list(counts)
        wrong = np.fromiter(map(len, patterns), np.int64, len(patterns)) != n
        stop = int(wrong.argmax()) if wrong.any() else len(patterns)
        codes = pattern_codes(patterns[:stop], n)  # the first bad one raises
        bad = (codes == AMBIGUOUS).any(axis=0)
        if bad.any():
            raise ValueError(f"non-ACGT symbol in pattern "
                             f"{patterns[bad.argmax()]!r}")
        if stop < len(patterns):
            raise ValueError(f"pattern {patterns[stop]!r} is not length {n}")
        return cls(_scatter(codes, np.fromiter(counts.values(), float, stop)),
                   tuple(range(1, n + 1)), stochastic)

    @classmethod
    def column_frequencies(cls, codes: np.ndarray) -> "PatternTensor":
        """The relative frequencies of the columns of (n, m) ACGT state codes,
        flagged stochastic: each entry is its column count / m exactly."""
        values = _scatter(codes, 1.0)
        values /= codes.shape[1]
        return cls(values, tuple(range(1, len(codes) + 1)), stochastic=True)


def _scatter(codes: np.ndarray, weights) -> np.ndarray:
    """The 4^n tensor of ``weights`` summed at the columns' patterns."""
    indices = pattern_indices(codes)  # before allocating 4**n entries
    values = np.zeros(K ** len(codes))
    np.add.at(values, indices, weights)
    return values


def state_codes(text: str | bytes) -> np.ndarray:
    """One read-only uint8 per character (or byte): 0..3 for A, C, G, T
    (upper case only) and ``AMBIGUOUS`` for anything else."""
    if isinstance(text, str):
        text = text.encode("latin-1", "replace")
    return np.frombuffer(text.translate(_CODES), dtype=np.uint8)


def pattern_codes(patterns: list[str], n: int) -> np.ndarray:
    """The (n, m) state codes of m patterns of length n."""
    return state_codes("".join(patterns)).reshape(len(patterns), n).T


def pattern_indices(digits: np.ndarray) -> np.ndarray:
    """Base-4 indices of the columns of (n, m) state codes, by Horner's rule
    over the rows, the first most significant.  More than ``MAX_LEAVES``
    positions index no dense tensor (and past 31 they overflow)."""
    if len(digits) > MAX_LEAVES:
        raise ValueError(f"{len(digits)} positions outside the dense range "
                         f"0..{MAX_LEAVES}")
    out = np.zeros(digits.shape[1], dtype=np.int64)
    for row in digits:
        out *= K
        out += row
    return out


def pattern_strings(indices: np.ndarray, n: int) -> list[str]:
    """The length-n ACGT strings of int64 pattern indices."""
    if not n:
        return [""] * len(indices)
    letters = _LETTERS[indices[:, None] >> np.arange(2 * n - 2, -1, -2) & 3]
    return letters.view(f"S{n}").ravel().astype(f"U{n}").tolist()


def averaged(psi: PatternTensor, model: EquivariantModel) -> PatternTensor:
    """Group-average ``psi`` onto the exactly invariant tensors.  The trivial
    group, and a tensor that is already this function's output for
    ``model``, come back as they are: the average is a projection, and the
    values of a ``PatternTensor`` are read-only."""
    if model.order == 1 or psi._averaged_for is model:
        return psi
    out = replace(psi, values=group_average(psi.values, model, psi.n))
    object.__setattr__(out, "_averaged_for", model)
    return out


# ---------------------------------------------------------------------------
# Flattenings
# ---------------------------------------------------------------------------

def _sides(psi: PatternTensor, split) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalize a Bipartition or an explicit (side1, side2) pair against the
    tensor's labels; each side comes back sorted ascending."""
    if isinstance(split, Bipartition):
        side1, side2 = split.sides
    else:
        side1, side2 = (frozenset(s) for s in split)
    if side1 & side2 or set(psi.labels) != side1 | side2:
        raise ValueError("split does not partition the tensor labels")
    if not side1 or not side2:
        raise ValueError("both sides of a split must be nonempty")
    return tuple(sorted(side1)), tuple(sorted(side2))


def block_spectra(blocks: np.ndarray) -> np.ndarray:
    """The singular values of a block, or of each block of a stack along
    the leading axis, descending; empty for empty blocks."""
    if not blocks.size:
        return np.empty(blocks.shape[:-2] + (0,))
    return np.linalg.svd(blocks, compute_uv=False)


class CharacterTransform:
    """A tensor's coordinates in the Kronecker power of the one-site adapted
    basis of an abelian model.

    Such a basis vector lies in the isotypic component of the product of
    its digits' characters (its label), so the label-c block of every split
    is a gather of ``coeffs``: row patterns of side 1 labelled c against
    column patterns of side 2 labelled c.  Holds no reference to the
    tensor, which keeps it in ``PatternTensor._transforms``.
    """

    def __init__(self, psi: PatternTensor, model: EquivariantModel):
        if not model.abelian:
            raise ValueError(f"{model.name} has irreps of dimension > 1")
        self.model = model
        matrix = symmetry_adapted_basis(model, 1).dense()
        coeffs = psi.values
        buffers = (np.empty(coeffs.size), np.empty(coeffs.size))
        for i in range(psi.n):
            # contract the leading axis; the new one goes last, so after n
            # passes the axes are back in order.  Passes alternate buffers.
            coeffs = np.matmul(coeffs.reshape(K, -1).T, matrix,
                               out=buffers[i % 2].reshape(-1, K))
        self.coeffs = coeffs.reshape(-1)
        # per position label, the flat-index step of each of its states
        self._strides = {lab: K ** (psi.n - 1 - i) * np.arange(K)
                         for i, lab in enumerate(psi.labels)}

    def blocks(self, sides: list[tuple[tuple[int, ...], tuple[int, ...]]],
               labels: Iterable[int]) -> Iterator[np.ndarray]:
        """For each c of ``labels`` in turn, the stack of label-c blocks
        along the (side1, side2) pairs of ``sides``, sorted as ``_sides``
        returns them and all of one pair of side sizes: one gather of shape
        (len(sides), side-1 patterns of label c, side-2 patterns of label
        c).  Each label is gathered when the next one is asked for."""
        def offsets(stack):
            # flat index in coeffs of every pattern of each side's positions
            strides = np.array([[self._strides[lab] for lab in side]
                                for side in stack])
            out = np.zeros((len(stack), 1), dtype=np.int64)
            for stride in strides.transpose(1, 0, 2):
                out = (out[:, :, None] + stride[:, None]).reshape(len(stack),
                                                                  -1)
            return out

        side1s, side2s = zip(*sides)
        rows, cols = offsets(side1s), offsets(side2s)
        members1 = label_classes(self.model, len(side1s[0]))
        members2 = label_classes(self.model, len(side2s[0]))
        for c in labels:
            yield self.coeffs.take(rows[:, members1[c], None]
                                   + cols[:, None, members2[c]])


def character_transform(psi: PatternTensor,
                        model: EquivariantModel) -> CharacterTransform:
    """The character transform of ``psi`` under an abelian model, computed
    on first use and kept with the tensor."""
    found = psi._transforms.get(model.name)
    if found is None:
        found = psi._transforms[model.name] = CharacterTransform(psi, model)
    return found


def _first_copy_block(blocks: np.ndarray, rows, cols) -> np.ndarray:
    """P1^T B P2 for each block B of a stack, for first-copy pieces
    ``(index, weight)`` of ``CliffordReduction.first_copies``; ``None``
    pieces are identities."""
    if rows is None:
        return blocks
    for index, weight in (rows, cols):
        # compress the first block axis, then turn the other one to it
        blocks = np.matmul(weight[:, None, :], blocks.take(index, axis=1)
                           )[:, :, 0].swapaxes(1, 2)
    return blocks


def split_stacks(psi: PatternTensor, splits: Iterable[Bipartition],
                 model: EquivariantModel) -> Iterator[list]:
    """The bipartitions of ``psi``'s leaves in stacks for
    ``character_flattening``, which checks them: splits of equal side sizes,
    in order, as many as keep the stack's largest label block within
    ``STACK_ENTRIES`` entries, and one at least."""
    reduction = clifford_reduction(model)
    shapes: dict[tuple[int, int], list] = {}
    for split in splits:
        # the side sizes of ``_sides``: leaf 1's side first
        sizes = split.n_leaves - len(split.side), len(split.side)
        shapes.setdefault(sizes, []).append(split)
    for (l1, l2), group in shapes.items():
        members1 = label_classes(reduction.labels, l1)
        members2 = label_classes(reduction.labels, l2)
        size = max(1, STACK_ENTRIES // max(len(members1[c]) * len(members2[c])
                                           for c in reduction.irrep_labels))
        for start in range(0, len(group), size):
            yield group[start:start + size]


def character_flattening(psi: PatternTensor, splits,
                         model: EquivariantModel
                         ) -> Iterator[tuple[int, np.ndarray]]:
    """The thin flattenings along a stack of splits with equal side sizes,
    one irrep at a time: ``(t, blocks)``, where ``blocks[i]`` is the block
    of irrep t along ``splits[i]``.  From the character transform of
    ``psi`` under the model's label group (see ``CliffordReduction``): the
    label-c_t block, compressed on both sides to the first copy of t.  The
    irreps come grouped by label, and a label's blocks are gathered once,
    for all its irreps, and dropped before the next label's.  A single
    split is a stack of one.  On a tensor that is not group-invariant, K80's
    E block is another copy of E than the first."""
    sides = [_sides(psi, split) for split in splits]
    reduction = clifford_reduction(model)
    l1, l2 = map(len, sides[0])
    if any((len(a), len(b)) != (l1, l2) for a, b in sides):
        raise ValueError("a stack holds splits of one pair of side sizes")
    pieces = tuple(zip(reduction.irrep_labels, reduction.first_copies(l1),
                       reduction.first_copies(l2)))
    wanted = sorted(set(reduction.irrep_labels))
    gathered = character_transform(psi, reduction.labels).blocks(sides,
                                                                 wanted)
    for c, blocks in zip(wanted, gathered):
        for t, (label, rows, cols) in enumerate(pieces):
            if label == c:
                yield t, _first_copy_block(blocks, rows, cols)
        del blocks  # before the next label is gathered


@dataclass(frozen=True)
class RankVector:
    """Numerical ranks of the thin-flattening blocks at a shared relative
    threshold: singular values above tol * (largest singular value across all
    blocks) count.  ``total`` sums the entries; ``weighted`` weights each by
    its irrep dimension, matching the rank of the plain flattening for
    invariant tensors."""

    entries: tuple[int, ...]
    tolerance: float
    total: int
    weighted: int

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, t: int) -> int:
        return self.entries[t]


def stack_ranks(spectra: list[np.ndarray], dims: tuple[int, ...],
                tol: float) -> list[RankVector]:
    """Blockwise numerical ranks of a stack of thin flattenings, one
    ``RankVector`` per split, from each irrep's (splits, singular values)
    array.

    The threshold is relative to the largest singular value over the whole
    thin flattening, not per block, so near-zero blocks of noisy data do not
    inflate the rank.  Empty and all-zero blocks have rank 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    tops = [s[:, 0] for s in spectra if s.shape[1]]
    sigma_max = np.max(tops, axis=0) if tops else np.zeros(len(spectra[0]))
    # no singular value exceeds a zero sigma_max
    counts = np.array([(s > tol * sigma_max[:, None]).sum(axis=1)
                       for s in spectra]).T.tolist()
    return [RankVector(tuple(entries), tol, sum(entries),
                       sum(d * r for d, r in zip(dims, entries)))
            for entries in counts]


# ---------------------------------------------------------------------------
# Serialization: binary container and JSON debug form
# ---------------------------------------------------------------------------

_MAGIC = b"EQPT"
_VERSION = 1
_FLAG_STOCHASTIC = 1


def tensor_to_bytes(psi: PatternTensor) -> bytes:
    canonical = psi.with_canonical_labels()
    flags = _FLAG_STOCHASTIC if canonical.stochastic else 0
    header = _MAGIC + struct.pack("<HHHH", _VERSION, canonical.n, K, flags)
    return header + canonical.values.astype("<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> PatternTensor:
    if blob[:4] != _MAGIC:
        raise ValueError("not a pattern-tensor container")
    if len(blob) < 12:
        raise ValueError("pattern-tensor container is shorter than its header")
    version, n, k, flags = struct.unpack("<HHHH", blob[4:12])
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if k != 4:
        raise ValueError(f"unsupported alphabet size k={k}, expected 4")
    values = np.frombuffer(blob, dtype="<f8", offset=12)
    return PatternTensor(values.copy(), tuple(range(1, n + 1)),
                         bool(flags & _FLAG_STOCHASTIC))


def save_tensor(psi: PatternTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(psi))


def tensor_to_json(psi: PatternTensor) -> str:
    canonical = psi.with_canonical_labels()
    kept = np.flatnonzero(canonical.values)
    entries = list(zip(pattern_strings(kept, canonical.n),
                       canonical.values[kept].tolist()))
    return json.dumps({
        "n": canonical.n, "k": K, "states": STATES,
        "stochastic": canonical.stochastic, "entries": entries,
    })


def tensor_from_json(text: str) -> PatternTensor:
    try:
        doc = json.loads(text)
        counts = {str(pattern): float(value)
                  for pattern, value in doc["entries"]}
        n = operator.index(doc["n"])
    except (KeyError, TypeError, OverflowError, RecursionError) as err:
        raise ValueError(f"malformed tensor JSON: {err!r}") from None
    stochastic = doc.get("stochastic", False)
    if not isinstance(stochastic, bool):
        raise ValueError(f"malformed tensor JSON: stochastic is "
                         f"{stochastic!r}, not true or false")
    return PatternTensor.from_pattern_counts(counts, n, stochastic=stochastic)
