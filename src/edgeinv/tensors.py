"""Dense pattern tensors, pattern indexing, thin flattenings, and
multiplicity-space block ranks.

A PatternTensor stores the joint state distribution (or any real tensor) over
a set of labelled positions, flat in the canonical index order: the first
label is the most significant base-4 digit, states ordered A < C < G < T, so
index order is string order.  Text becomes state codes (``state_codes``),
codes become indices (``pattern_indices``), indices become codes again
(``pattern_digits``) and strings (``pattern_strings``) in array passes;
strings exist only at the edges.

The thin flattening of a tensor along a bipartition is the family of blocks
obtained by transforming the plain flattening into the symmetry-adapted bases
of both sides: for a G-invariant tensor the transformed matrix is block
diagonal with one block per (irrep, copy) pair and identical blocks across
copies, so only the first copy is kept.

One route computes the blocks, ``character_flattening``, for every model
and every caller, for a stack of splits with equal side sizes at once (a
single split is a stack of one), from the tensor's one character transform
(``CharacterTransform``): the one-site adapted basis of an abelian label
group along every axis (the model's own for GMM, SSM and K81, K81's for
K80 and JC69), kept on its class of label 0: the transform of the label
group's average and, once averaged over the stabiliser of a state, of the
model's.  The block of irrep t pairs the side-1 patterns of label c_t with
the side-2 patterns of label c_t, compressed on both sides to the first
copy of t by a small change of basis for the stabiliser of c_t
(``groups.CliffordReduction``); for the abelian models c_t is t and the
change of basis is the identity; where c_t has a stabiliser, side 1's is
read off a few seed rows.  No basis above power 1 is built.
"""

from __future__ import annotations

import io
import json
import operator
import struct
from collections import Counter
from math import prod
from typing import Iterable, Iterator

import numpy as np

from .groups import (
    K,
    STATES,
    EquivariantModel,
    clifford_reduction,
    completing_digits,
    copy_label_zero,
    label_classes,
    symmetry_adapted_basis,
)
from .records import Record
from .trees import Bipartition

MAX_LEAVES = 12
# the most entries of the largest label block of a stack of splits
STACK_ENTRIES = 2 ** 15
AMBIGUOUS = K    # the state code of every symbol outside ACGT
# the state code of each latin-1 character, as a bytes.translate table, and
# with ASCII case folded, as FASTA reads it
_CODES = bytes(STATES.index(ch) if ch in STATES else AMBIGUOUS
               for ch in map(chr, range(256)))
FOLDED_CODES = bytes(_CODES[b] for b in bytes(range(256)).upper())
# the ASCII letter of each state code
LETTERS = np.frombuffer(STATES.encode(), dtype=np.uint8)

STOCHASTIC_NEG_TOL = 1e-12
STOCHASTIC_SUM_TOL = 1e-9
# the norm divides every score: where it overflows, each would be NaN
OVERFLOW = "the tensor's sum of squares overflows float64; rescale it"


class PatternTensor(Record):
    """A real tensor over labelled positions, 4 states each.

    values : flat array of length 4**n in canonical index order.
    labels : position labels, most significant first; leaf tensors use 1..n.
    stochastic : set when the entries form a probability distribution
        (non-negative up to 1e-12, total 1 up to 1e-9; checked on creation).
    """

    values: np.ndarray
    labels: tuple[int, ...]
    stochastic: bool = False

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        n = len(self.labels)
        if n > MAX_LEAVES:
            raise ValueError(f"{n} positions exceed the dense cap {MAX_LEAVES}")
        if values.shape != (K ** n,):
            raise ValueError(f"expected {K ** n} entries for {n} positions,"
                             f" got {values.shape}")
        with np.errstate(over="ignore"):  # finite entries may overflow it
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
        self.__dict__.update(values=values, labels=tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def nd(self) -> np.ndarray:
        return self.values.reshape((K,) * self.n)

    def norm(self) -> float:
        """The Euclidean norm, inf without a warning where it overflows."""
        with np.errstate(over="ignore"):
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
    """Base-4 uint32 indices of the columns of (n, m) state codes, by Horner's
    rule over the rows in 2-bit shifts, the first most significant.  More
    than ``MAX_LEAVES`` positions index no dense tensor."""
    if len(digits) > MAX_LEAVES:
        raise ValueError(f"{len(digits)} positions outside the dense range "
                         f"0..{MAX_LEAVES}")
    out = np.zeros(digits.shape[1], dtype=np.uint32)
    for row in digits:
        out <<= 2
        out |= row
    return out


def pattern_digits(indices: np.ndarray, n: int) -> np.ndarray:
    """The (n, m) state codes of m pattern indices of n positions: the
    inverse of ``pattern_indices``, one uint8 row at a time."""
    digits = np.empty((n, len(indices)), dtype=np.uint8)
    for shift, row in zip(range(2 * n - 2, -1, -2), digits):
        row[...] = indices >> shift & K - 1
    return digits


def pattern_strings(indices: np.ndarray, n: int) -> list[str]:
    """The length-n ACGT strings of pattern indices."""
    if not n:
        return [""] * len(indices)
    letters = LETTERS[pattern_digits(indices, n).T.copy()]
    return letters.view(f"S{n}").ravel().astype(f"U{n}").tolist()


# ---------------------------------------------------------------------------
# Flattenings
# ---------------------------------------------------------------------------

def _sides(psi: PatternTensor, split) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalize a Bipartition or an explicit (side1, side2) pair against the
    labels of a tensor or its transform; each side comes back sorted."""
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
    the leading axis, descending; empty for empty blocks.  LAPACK takes a
    wide block faster as its transposed view."""
    if not blocks.size:
        return np.empty(blocks.shape[:-2] + (0,))
    if blocks.shape[-2] < blocks.shape[-1]:
        blocks = blocks.swapaxes(-1, -2)
    return np.linalg.svd(blocks, compute_uv=False)


class CharacterTransform:
    """A tensor's group average under ``model`` in the Kronecker power of
    the one-site adapted basis of its label group (``CliffordReduction``),
    on the class of label 0 (the product of a pattern's digit characters),
    which holds every split block and is all that the label group's average
    keeps; the stabiliser's average of it is the model's.  ``kept`` has an
    axis per position in label order, the last holding the k digits there
    that complete the class: k = 1 for K81, K80 and JC69, 2 for SSM, 4 for
    GMM.  It holds no reference to the tensor, but the model averaged
    over and the take indices ``blocks`` last built (``None`` frees them).
    """

    def __init__(self, psi: PatternTensor, model: EquivariantModel):
        reduction = clifford_reduction(model)
        self.model = model
        self.label_group = reduction.labels
        k = len(completing_digits(self.label_group)[0])
        self.labels = psi.labels
        self._axes = dict(zip(sorted(psi.labels), range(psi.n)))
        matrix = symmetry_adapted_basis(self.label_group, 1).dense()
        coeffs = psi.values
        buffers = np.empty(coeffs.size), np.empty(coeffs.size)
        for i in range(psi.n):
            # contract the leading axis; the new one goes last, so after n
            # passes the axes are back in order.  Passes alternate buffers.
            coeffs = np.matmul(coeffs.reshape(K, -1).T, matrix,
                               out=buffers[i % 2].reshape(-1, K))
        # the positions in label order, so the largest label's goes last
        full = coeffs.reshape((K,) * psi.n).transpose(np.argsort(psi.labels))
        del buffers, coeffs  # the spare buffer is dropped
        rows = full.size // K  # the other positions' patterns
        kept = np.empty(rows * k).reshape(full.shape[:-1] + (-1,))
        copy_label_zero(full, self.label_group, kept, np.empty(rows, np.bool_))
        del full  # the last tensor-sized buffer, before the average's
        self.kept = reduction.stabiliser_average(kept)
        self.takes = None  # see ``blocks``

    def blocks(self, sides: list[tuple[tuple[int, ...], tuple[int, ...]]]
               ) -> list[np.ndarray]:
        """Per irrep t, the stack along the (side1, side2) pairs of
        ``sides`` (sorted as by ``_sides``, of one pair of side sizes) of
        the blocks L between the sides' label-c_t classes, or of L[rows,
        cols] for a ``CliffordReduction.cuts`` of t.  From one copy of
        ``kept`` per split, by ``CliffordReduction.takes``."""
        l1, l2 = map(len, sides[0])
        reduction = clifford_reduction(self.model)
        members1 = label_classes(self.label_group, l1)
        members2 = label_classes(self.label_group, l2)
        cuts = reduction.cuts(l1, l2)
        stacks = [np.empty((len(sides),) + (
                      (len(members1[c]), len(members2[c])) if cut is None
                      else np.broadcast(*cut).shape))
                  for c, cut in zip(reduction.irrep_labels, cuts)]
        if not self.takes or self.takes[0] != (l1, l2):
            self.takes = (l1, l2), [None, None]
        takes = self.takes[1]  # per axis, the indices of each stack
        for i, (side1, side2) in enumerate(sides):
            # side 2 is taken by label when side 1 holds the largest label
            axis = int(side1[-1] > side2[-1])
            copy = np.ascontiguousarray(self.kept.transpose(
                list(map(self._axes.get, side1 + side2))))
            copy = copy.reshape(prod(copy.shape[:l1]), -1)
            if takes[axis] is None:
                takes[axis] = reduction.takes(l1, l2, axis, copy.shape[1])
            for cut, index, stack in zip(cuts, takes[axis], stacks):
                # the indices are in range; "raise" would buffer ``out``
                copy.take(index, axis=None if cut else axis, mode="clip",
                          out=stack[i])
        return stacks


def split_stacks(splits: Iterable[Bipartition],
                 model: EquivariantModel) -> Iterator[list]:
    """Bipartitions in stacks for ``character_flattening``, which checks
    them against the tensor: splits of equal side sizes, in order, as many
    as keep the stack's largest label block within ``STACK_ENTRIES``
    entries, and one at least."""
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
    of irrep t along ``splits[i]``, of the group average of ``psi``.  From
    the character transform of ``psi`` under ``model`` (``psi`` may be that
    transform; one under another model raises ValueError): the label-c_t
    block, compressed on both sides to the first copy of t (see
    ``CliffordReduction``).  Where c_t has a stabiliser, the transform is
    averaged over it, so side 1's compression is gamma times seed rows,
    P1^T L P2 = gamma (L P2)[seeds] (``CliffordReduction.first_copy_seeds``),
    and only those rows are taken: the two-sided compression to rounding.
    A single split is a stack of one."""
    reduction = clifford_reduction(model)
    transform = psi if isinstance(psi, CharacterTransform) else \
        CharacterTransform(psi, model)
    if transform.model != model:
        raise ValueError(f"a transform averaged under {transform.model.name}"
                         f" gives no {model.name} blocks")
    sides = [_sides(transform, split) for split in splits]
    l1, l2 = map(len, sides[0])
    if any((len(a), len(b)) != (l1, l2) for a, b in sides):
        raise ValueError("a stack holds splits of one pair of side sizes")
    cuts = reduction.cuts(l1, l2)
    stacks = transform.blocks(sides)
    for t, cut in enumerate(cuts):
        blocks, stacks[t] = stacks[t], None  # freed once compressed
        yield t, blocks if cut is None else reduction.compress(t, blocks,
                                                                l1, l2)


class RankVector(Record):
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


def read_container(stream, head: bytes = b"") -> PatternTensor:
    """The tensor in a binary stream's container, ``head`` (a prefix of its
    12-byte header) read already.  The header, and the byte count where the
    stream seeks, are checked before the values are read into their array,
    which is the only tensor-sized buffer: ``with open(path, "rb") as fh:
    read_container(fh)``."""
    head += stream.read(12 - len(head))
    if head[:4] != _MAGIC:
        raise ValueError("not a pattern-tensor container")
    if len(head) < 12:
        raise ValueError("pattern-tensor container is shorter than its header")
    version, n, k, flags = struct.unpack("<HHHH", head[4:])
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if k != 4:
        raise ValueError(f"unsupported alphabet size k={k}, expected 4")
    if n > MAX_LEAVES:
        raise ValueError(f"{n} positions exceed the dense cap {MAX_LEAVES}")
    size = nbytes = 8 * K ** n
    if stream.seekable():
        at = stream.tell()
        size = stream.seek(0, io.SEEK_END) - stream.seek(at)
    if size == nbytes:
        values = np.empty(K ** n, dtype="<f8")
        size = stream.readinto(values) + len(stream.read())
    if size != nbytes:
        raise ValueError("buffer size must be a multiple of element size"
                         if size % 8 else f"expected {K ** n} entries for "
                         f"{n} positions, got ({size // 8},)")
    return PatternTensor(values, tuple(range(1, n + 1)),
                         bool(flags & _FLAG_STOCHASTIC))


def save_tensor(psi: PatternTensor, path) -> None:
    canonical = psi.with_canonical_labels()
    flags = _FLAG_STOCHASTIC if canonical.stochastic else 0
    header = struct.pack("<HHHH", _VERSION, canonical.n, K, flags)
    with open(path, "wb") as fh:  # the header, then the values' own bytes
        fh.write(_MAGIC + header)
        fh.write(np.asarray(canonical.values, "<f8"))


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
        entries = doc["entries"]
        counts = {str(pattern): float(value) for pattern, value in entries}
        n = operator.index(doc["n"])
    except (KeyError, TypeError, OverflowError, RecursionError) as err:
        raise ValueError(f"malformed tensor JSON: {err!r}") from None
    if len(counts) < len(entries):  # a dict keeps a pattern's last value
        twice = next(p for p, k in Counter(str(p) for p, _ in entries).items()
                     if k > 1)
        raise ValueError(f"malformed tensor JSON: pattern {twice!r} "
                         f"listed twice")
    if isinstance(doc["n"], bool):  # operator.index(True) is 1
        raise ValueError(f"malformed tensor JSON: n is "
                         f"{json.dumps(doc['n'])}, not an integer")
    stochastic = doc.get("stochastic", False)
    if not isinstance(stochastic, bool):
        raise ValueError(f"malformed tensor JSON: stochastic is "
                         f"{stochastic!r}, not true or false")
    return PatternTensor.from_pattern_counts(counts, n, stochastic=stochastic)
