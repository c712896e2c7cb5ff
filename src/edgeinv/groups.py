"""Permutation-group engine for the built-in substitution symmetries.

Each model is a subgroup G of the permutations of the four states A,C,G,T
together with explicit real orthogonal matrices for every irreducible
representation.  Everything downstream (multiplicity vectors, symmetry-adapted
bases of tensor powers, group averages) is computed from these, with
character arithmetic done in exact integers.  Once per model, one product
table of the group serves its verification, its conjugacy classes and the
cyclic factors of its average.

Basis vectors of the l-fold tensor power are built per G-orbit with the
matrix-element projectors E[t][r] = (d_t/|G|) sum_g D_t(g)[r,0] rho(g)^(x l):
the image of E[t][0] on lexicographically ordered pattern seeds gives the
multiplicity vectors, and E[t][r] maps those to the remaining copies.  Since
rho(g)^(x l) permutes patterns within a G-orbit, every basis vector has at
most |G| nonzero entries and the basis is held sparse, in numpy arrays.
That arithmetic depends on an orbit only through its local action (where
each g sends each member, as positions in the sorted member list) and the
irrep, and few local actions occur at any power, so it runs once per process
for each of them and the vectors are copied onto every orbit of that shape.

Group averaging never holds the |G| x k^l table of pattern images: it sums
over G as a product of sums over cyclic subgroups, gathering block by block,
so its memory is one k^l array besides its input whatever the group order.

Scoring builds no basis above power 1.  ``CliffordReduction`` places the
first copy of every irrep on one label class of the Kronecker powers of an
abelian label group's one-site basis, where the stabiliser of a state acts
by permuting digits, and builds that copy orbit by orbit with the same
machinery as the bases: the orbits once per stabiliser and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .trees import Bipartition, TreeTopology, min_edge_cut

STATES = "ACGT"        # the state alphabet, in index order
K = 4
MODEL_NAMES = ("GMM", "SSM", "K81", "K80", "JC69")

MAX_POWER = 12          # k^l capacity guard for multiplicities and bases
_BLOCK_DIGITS = 7       # group averages gather blocks of k^7 patterns

Perm = tuple[int, ...]

_IDENTITY: Perm = (0, 1, 2, 3)


def _compose(g: Perm, h: Perm) -> Perm:
    """g after h."""
    return tuple(g[h[i]] for i in range(len(h)))


def _closure(generators: Iterable[Perm]) -> tuple[Perm, ...]:
    """The group generated, sorted, from |G| |gens| products: each element
    found times each generator (a finite monoid of permutations is a group)."""
    gens = tuple(generators)
    elems, frontier = {_IDENTITY}, [_IDENTITY]
    while frontier:
        h = frontier.pop()
        for g in gens:
            prod = _compose(g, h)
            if prod not in elems:
                elems.add(prod)
                frontier.append(prod)
    return tuple(sorted(elems))


def _cycle_notation(g: Perm) -> str:
    seen: set[int] = set()
    cycles = []
    for start in range(len(g)):
        if start in seen or g[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = g[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = g[nxt]
        cycles.append("(" + "".join(STATES[i] for i in cyc) + ")")
    return "".join(cycles) if cycles else "id"


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: a name, its dimension, and the matrix
    D(g) for every group element (indexed like the model's element list)."""

    name: str
    dim: int
    matrices: np.ndarray  # shape (|G|, dim, dim), read-only


@dataclass(frozen=True)
class MultiplicityVector:
    """Per-irrep multiplicities of the l-fold tensor power of the state space."""

    entries: tuple[int, ...]
    power: int

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, t: int) -> int:
        return self.entries[t]

    def __len__(self) -> int:
        return len(self.entries)


class EquivariantModel:
    """A permutation group on the state alphabet plus explicit irreps.

    Instances are immutable after construction and verified on creation:
    group axioms, homomorphism property and orthogonality of every irrep,
    exact character orthogonality, sum d_t^2 = |G|, and the permutation
    character being the fixed-state count.
    """

    def __init__(self, name: str, elements: Sequence[Perm],
                 irreps: Sequence[Irrep]):
        self.name = name
        self.elements: tuple[Perm, ...] = tuple(elements)
        self.irreps: tuple[Irrep, ...] = tuple(irreps)
        self.order = len(self.elements)
        self.n_irreps = len(self.irreps)
        self.dims = tuple(ir.dim for ir in self.irreps)
        self.abelian = all(d == 1 for d in self.dims)
        self._index = {g: i for i, g in enumerate(self.elements)}
        perms = np.array(self.elements, dtype=np.int64)
        self.fixed_counts = (perms == np.arange(K)).sum(axis=1)
        # integral character values per element, exactness asserted
        chars = np.empty((self.n_irreps, self.order), dtype=np.int64)
        for t, ir in enumerate(self.irreps):
            traces = np.trace(ir.matrices, axis1=1, axis2=2)
            rounded = np.rint(traces)
            if not np.allclose(traces, rounded, atol=1e-9):
                raise AssertionError(f"{name}: non-integral character {ir.name}")
            chars[t] = rounded.astype(np.int64)
        self.characters = chars
        self.characters.setflags(write=False)
        self._multiplicities: dict[int, MultiplicityVector] = {}
        # product[i, j] = index of g_i after g_j, built and verified once
        self._product, inverses = self._verify(perms)
        self._classes = self._conjugacy_classes(inverses)

    # -- structure ---------------------------------------------------------

    def _conjugacy_classes(self, inverses: np.ndarray
                           ) -> tuple[tuple[int, ...], ...]:
        product = self._product
        # least[j]: least index of any h g_j h^-1, which names g_j's class
        least = product[product, inverses[:, None]].min(axis=0)
        classes = [tuple(np.flatnonzero(least == i).tolist())
                   for i in np.flatnonzero(least == np.arange(self.order))]
        classes.sort(key=lambda c: (len(c), self.elements[c[0]]))
        return tuple(classes)

    @property
    def conjugacy_classes(self) -> tuple[tuple[Perm, ...], ...]:
        return tuple(tuple(self.elements[i] for i in cls)
                     for cls in self._classes)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self._classes)

    @property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(_cycle_notation(self.elements[c[0]]) for c in self._classes)

    def character_table(self) -> np.ndarray:
        """Integer table, rows = irreps, columns = conjugacy classes."""
        return np.stack([self.characters[:, c[0]] for c in self._classes],
                        axis=1)

    def permutation_character(self) -> tuple[int, ...]:
        """Fixed-state counts per conjugacy class."""
        return tuple(int(self.fixed_counts[c[0]]) for c in self._classes)

    def character_at(self, perm: Perm) -> int:
        """Fixed-state count of one explicit permutation."""
        return int(self.fixed_counts[self._index[perm]])

    def _verify(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assert the axioms; returns the product table and the inverses."""
        assert self.elements[0] == _IDENTITY
        weights = K ** np.arange(K - 1, -1, -1)
        # element index of each permutation, by its base-K code; -1 if absent
        lookup = np.full(K ** K, -1, dtype=np.int64)
        lookup[perms @ weights] = np.arange(self.order)
        inverses = lookup[np.argsort(perms, axis=1) @ weights]
        assert (inverses >= 0).all(), f"{self.name}: missing inverse"
        product = lookup[perms[:, perms] @ weights]
        assert (product >= 0).all(), f"{self.name}: not closed"
        assert sum(d * d for d in self.dims) == self.order
        for ir in self.irreps:
            mats = ir.matrices
            eye = np.eye(ir.dim)
            assert np.allclose(mats[0], eye, atol=1e-12)
            assert np.allclose(mats @ mats.transpose(0, 2, 1), eye,
                               atol=1e-12), \
                f"{self.name}:{ir.name} not orthogonal"
            # block (i, j) of one product of stacked matrices is D(g_i) D(g_j)
            n, d = mats.shape[:2]
            pairs = mats.reshape(n * d, d) @ np.hstack(mats)
            assert np.allclose(pairs.reshape(n, d, n, d),
                               mats[product].transpose(0, 2, 1, 3),
                               atol=1e-12), \
                f"{self.name}:{ir.name} not a homomorphism"
        # exact first orthogonality relation
        gram = self.characters @ self.characters.T
        assert np.array_equal(gram, self.order * np.eye(self.n_irreps,
                                                        dtype=np.int64))
        # the permutation character decomposes with non-negative multiplicities
        recomposed = np.array(self.multiplicities(1).entries) @ self.characters
        assert np.array_equal(recomposed, self.fixed_counts)
        product.setflags(write=False)
        return product, inverses

    def __repr__(self) -> str:
        return f"EquivariantModel({self.name}, |G|={self.order})"

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, EquivariantModel) and other.name == self.name

    # -- multiplicities ------------------------------------------------------

    def multiplicities(self, power: int) -> MultiplicityVector:
        """m(l): multiplicity of each irrep in the l-th tensor power.

        Exact integer arithmetic, once per power; raises on capacity beyond
        the guard.
        """
        if not 1 <= power <= MAX_POWER:
            raise ValueError(f"tensor power {power} outside guard 1..{MAX_POWER}")
        found = self._multiplicities.get(power)
        if found is not None:
            return found
        # exact in int64: |totals| <= |G| max|chi| 4^12, far below 2^63
        totals = self.characters @ self.fixed_counts ** power
        if (totals % self.order).any():
            raise AssertionError("non-integral multiplicity")
        entries = (totals // self.order).tolist()
        assert min(entries) >= 0
        assert sum(d * m for d, m in zip(self.dims, entries)) == K ** power
        found = MultiplicityVector(tuple(entries), power)
        self._multiplicities[power] = found
        return found


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _perm_matrices(perms: np.ndarray) -> np.ndarray:
    """The permutation matrices P with P[perm[a], a] = 1, one per row."""
    n, size = perms.shape
    mats = np.zeros((n, size, size))
    mats[np.arange(n)[:, None], perms, np.arange(size)] = 1.0
    return mats


def _one_dim(values: Sequence[float]) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def _build_gmm() -> EquivariantModel:
    return EquivariantModel("GMM", [_IDENTITY],
                            [Irrep("triv", 1, _one_dim([1.0]))])


def _build_ssm() -> EquivariantModel:
    elements = _closure([(3, 2, 1, 0)])  # (AT)(CG)
    signs = [1.0 if g == _IDENTITY else -1.0 for g in elements]
    return EquivariantModel("SSM", elements, [
        Irrep("triv", 1, _one_dim([1.0, 1.0])),
        Irrep("sgn", 1, _one_dim(signs)),
    ])


_HADAMARD_SIGNS = {
    # eigenvalue of each Hadamard vector under each Klein-group element
    "Abar": {(0, 1, 2, 3): 1, (1, 0, 3, 2): 1, (2, 3, 0, 1): 1, (3, 2, 1, 0): 1},
    "Cbar": {(0, 1, 2, 3): 1, (1, 0, 3, 2): 1, (2, 3, 0, 1): -1, (3, 2, 1, 0): -1},
    "Gbar": {(0, 1, 2, 3): 1, (1, 0, 3, 2): -1, (2, 3, 0, 1): 1, (3, 2, 1, 0): -1},
    "Tbar": {(0, 1, 2, 3): 1, (1, 0, 3, 2): -1, (2, 3, 0, 1): -1, (3, 2, 1, 0): 1},
}


def _build_k81() -> EquivariantModel:
    elements = _closure([(1, 0, 3, 2), (2, 3, 0, 1)])  # (AC)(GT), (AG)(CT)
    irreps = [Irrep(nm, 1, _one_dim([_HADAMARD_SIGNS[nm][g] for g in elements]))
              for nm in ("Abar", "Cbar", "Gbar", "Tbar")]
    return EquivariantModel("K81", elements, irreps)


def _build_k80() -> EquivariantModel:
    r = (1, 2, 3, 0)   # (ACGT)
    s = (2, 1, 0, 3)   # (AG)
    elements = _closure([r, s])
    decomposition = {}
    g = _IDENTITY
    for i in range(4):
        decomposition[g] = (i, 0)
        decomposition[_compose(g, s)] = (i, 1)
        g = _compose(r, g)
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    irreps = []
    for nm, (eps, delta) in (("A1", (1, 1)), ("A2", (1, -1)),
                             ("B1", (-1, 1)), ("B2", (-1, -1))):
        irreps.append(Irrep(nm, 1, _one_dim(
            [eps ** decomposition[g][0] * delta ** decomposition[g][1]
             for g in elements])))
    two = np.empty((len(elements), 2, 2))
    for idx, g in enumerate(elements):
        i, j = decomposition[g]
        two[idx] = np.linalg.matrix_power(rot90, i) @ (flip if j else np.eye(2))
    irreps.append(Irrep("E", 2, two))
    return EquivariantModel("K80", elements, irreps)


def _build_jc69() -> EquivariantModel:
    elements = _closure([(1, 0, 2, 3), (1, 2, 3, 0)])  # (AC), (ACGT): all of S4
    assert len(elements) == 24
    perms = np.array(elements)
    # the pairings AC|GT, AG|CT, AT|CG of the states are numbered 0, 1, 2,
    # so the one holding {x, y} is (x XOR y) - 1; pairings[e, i] is where
    # g_e sends pairing i, read off the image of its pair holding A
    pairings = (perms[:, :1] ^ perms[:, 1:]) - 1
    p_mats = _perm_matrices(perms)
    signs = np.rint(np.linalg.det(p_mats))  # exact: LU of a permutation
    hadamard3 = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float) / 2.0
    standard = hadamard3.T @ p_mats @ hadamard3
    std_sign = standard * signs[:, None, None]
    plane_basis = np.column_stack([
        np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
    ])
    plane = plane_basis.T @ _perm_matrices(pairings) @ plane_basis
    return EquivariantModel("JC69", elements, [
        Irrep("triv", 1, _one_dim([1.0] * 24)),
        Irrep("sgn", 1, _one_dim(signs)),
        Irrep("plane", 2, plane),
        Irrep("std", 3, standard),
        Irrep("std-sgn", 3, std_sign),
    ])


_BUILDERS = {"GMM": _build_gmm, "SSM": _build_ssm, "K81": _build_k81,
             "K80": _build_k80, "JC69": _build_jc69}


@lru_cache(maxsize=None)
def builtin_model(name: str) -> EquivariantModel:
    """One of GMM, SSM, K81, K80, JC69; verified on first construction."""
    try:
        builder = _BUILDERS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from "
                         f"{', '.join(MODEL_NAMES)}") from None
    return builder()


# ---------------------------------------------------------------------------
# Pattern-index machinery for tensor powers
# ---------------------------------------------------------------------------

def _element_row(g, power: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (length k^l) with the row of one element at the l-th
    power: entry p becomes the index of g . p; for a stack of elements, row
    i of ``out`` with the row of g_i.  Built in place as a Kronecker sum,
    one digit at a time with each new digit in front (every digit carries
    the same permutation): out[j k^m + q] = g[j] k^m + out[q]."""
    g = np.asarray(g)
    out[..., 0] = 0
    size = 1
    for _ in range(power):
        prefix = out[..., :size]
        for j in range(K - 1, -1, -1):  # j = 0 last, as it overwrites prefix
            np.add(prefix, g[..., j, None] * size,
                   out=out[..., j * size:(j + 1) * size])
        size *= K
    return out


def pattern_maps(model_name: str, power: int) -> np.ndarray:
    """Array of shape (|G|, k^l): row e sends pattern index p to g_e . p,
    where elements act diagonally on the l digits of p.  Built afresh on
    every call and not cached: at 12 leaves the JC69 table is 3.2 GB."""
    model = builtin_model(model_name)
    maps = np.empty((model.order, K ** power), dtype=np.int64)
    for row, g in zip(maps, model.elements):
        _element_row(g, power, row)
    return maps


@lru_cache(maxsize=None)
def _cyclic_factors(model: EquivariantModel) -> tuple[tuple[Perm, ...], ...]:
    """Cyclic subgroups C_1, ..., C_k of ``model``, each sorted (identity
    first), whose products run over every element once: C_1 of order d and
    the rest of order 2, greedily, for (d - 1) + log2(|G| / d) gathers."""
    def gathers(c):  # fewest first, then larger C_1; |G| / d a power of 2
        rest = model.order // len(c)
        return rest & (rest - 1), len(c) - 1 + np.log2(rest), -len(c)

    product = model._product
    # column i lists g_i^0, g_i^1, ... up to the exponent of the group
    powers = [np.zeros(model.order, dtype=np.int64), np.arange(model.order)]
    while powers[-1].any():
        powers.append(product[powers[1], powers[-1]])
    cycles = [sorted(set(col)) for col in np.array(powers).T.tolist()]
    for first in sorted(cycles, key=gathers):
        covered = np.zeros(model.order, dtype=bool)
        covered[first] = True
        factors = [tuple(sorted(model.elements[i] for i in first))]
        for c in (p[1] for p in cycles if len(p) == 2):
            shifted = product[covered, c]
            if not covered[shifted].any():
                covered[shifted] = True
                factors.append((_IDENTITY, model.elements[c]))
        if covered.all():
            return tuple(factors)
    raise AssertionError(f"{model.name}: no cyclic factorization")


def group_average(values: np.ndarray, model: EquivariantModel,
                  power: int) -> np.ndarray:
    """Orthogonal projection of a flat k^l tensor onto the G-invariants.

    With T_g the gather psi -> psi[g . p] and the cyclic factors C_i of G,
    sum_G T_g = (sum_{C_k} T) ... (sum_{C_1} T): C_1 gathers from ``values``
    and each later C_i = {1, c} adds a gather of the sum to itself, so JC69
    takes 5 gathers, K80 3, K81 2 and SSM 1.  Element g moves the block of
    k^7 patterns with high digits h to block g . h, so c updates h and c . h
    from each other in place, with three block-sized buffers."""
    values = np.asarray(values, dtype=float)
    if model.order == 1:
        return values
    if len(values) != K ** power:
        raise ValueError(f"expected {K ** power} entries for power {power}, "
                         f"got {len(values)}")
    first, *rest = _cyclic_factors(model)
    low = min(power, _BLOCK_DIGITS)
    blocks = values.reshape(-1, K ** low)
    acc = blocks.copy()
    row, high = np.empty(K ** low, np.int64), np.empty(len(acc), np.int64)
    tmp = np.empty((2, K ** low))
    # every index is in range, and mode="raise" would buffer the output
    for g in first[1:]:
        _element_row(g, low, row)
        for h, gh in enumerate(_element_row(g, power - low, high).tolist()):
            acc[h] += np.take(blocks[gh], row, out=tmp[0], mode="clip")
    for _, c in rest:
        _element_row(c, low, row)
        for h, ch in enumerate(_element_row(c, power - low, high).tolist()):
            if ch >= h:
                np.take(acc[ch], row, out=tmp[0], mode="clip")
                if ch > h:
                    np.take(acc[h], row, out=tmp[1], mode="clip")
                    acc[ch] += tmp[1]
                acc[h] += tmp[0]
    acc /= model.order
    return acc.reshape(-1)


# ---------------------------------------------------------------------------
# Symmetry-adapted bases
# ---------------------------------------------------------------------------

class SymmetryAdaptedBasis:
    """Orthonormal basis of the l-th tensor power organized by
    (irrep t, copy r, multiplicity j), held as the arrays of a sparse column
    matrix: ``(data, row indices, column pointers)``.

    Columns are grouped by (t, r) with the multiplicity index fastest, so the
    block of a transformed flattening that pairs copy r of irrep t on both
    sides occupies a contiguous submatrix.  ``dense()`` unpacks it.
    """

    def __init__(self, model: EquivariantModel, power: int,
                 csc_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
                 tags: tuple[tuple[int, int, int], ...]):
        self.model = model
        self.power = power
        self.csc_arrays = csc_arrays
        self.tags = tags
        self.multiplicities = model.multiplicities(power)
        self._ranges: dict[tuple[int, int], range] = {}
        offset = 0
        for t, m in enumerate(self.multiplicities.entries):
            for r in range(model.dims[t]):
                self._ranges[(t, r)] = range(offset, offset + m)
                offset += m
        assert offset == K ** power

    def columns(self, t: int, r: int) -> range:
        """Column range of copy r (0-based) of irrep t."""
        return self._ranges[(t, r)]

    def dense(self) -> np.ndarray:
        data, rows, indptr = self.csc_arrays
        size = K ** self.power
        out = np.zeros((size, size))
        out[rows, np.repeat(np.arange(size), np.diff(indptr))] = data
        return out


@lru_cache(maxsize=None)
def symmetry_adapted_basis(model: EquivariantModel,
                           power: int) -> SymmetryAdaptedBasis:
    """Construct the adapted basis, once per model and power.

    Deterministic: seeds are standard pattern vectors in lexicographic order,
    orthonormalized by twice-through Gram-Schmidt within each G-orbit (once
    per orbit shape, see ``_build_basis``).
    Raises if any projector image rank disagrees with the multiplicity
    vector, which would mean a misdefined model.
    """
    if not 1 <= power <= MAX_POWER:
        raise ValueError(f"tensor power {power} outside guard 1..{MAX_POWER}")
    return _build_basis(model, power)


_COPY_VECTORS: dict[tuple, np.ndarray] = {}


def _copy_vectors(local: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``_orthonormal_copies(local, weights)``, computed once per process for
    each distinct input and shared, read-only, by every basis and first-copy
    table whose orbits have that local action and irrep weights."""
    key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (local, weights))
    found = _COPY_VECTORS.get(key)
    if found is None:
        found = _orthonormal_copies(local, weights)
        found.setflags(write=False)
        found = _COPY_VECTORS.setdefault(key, found)
    return found


def _orthonormal_copies(local: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Adapted vectors of one orbit shape for one irrep.  ``local[e, a]`` is
    the position, among the orbit's sorted members, of element e applied to
    member a; ``weights[e, r]`` is the coefficient of element e in the
    matrix-element projector E[r][0], (d/|G|) D(g_e)[r, 0].  Seeds are the
    members in order, projected by E[0][0] and orthonormalized twice
    through; E[r][0] carries each accepted vector to copy r.  Returns an
    array of shape (d, accepted, size) whose [r, j] is copy r of the j-th
    accepted vector.
    """
    d = weights.shape[1]
    m_size = local.shape[1]
    # summed in element order, as a loop over the elements would
    e_ops = np.zeros((d, m_size, m_size))
    np.add.at(e_ops, (slice(None), local, np.arange(m_size)),
              weights.T[:, :, None])
    accepted: list[np.ndarray] = []
    for seed in range(m_size):
        w = e_ops[0, :, seed].copy()
        for _ in range(2):
            for v in accepted:
                w -= (v @ w) * v
        norm = np.sqrt(w.dot(w))  # as np.linalg.norm, without its checks
        if norm > 1e-6:
            accepted.append(w / norm)
    copies = [accepted]
    for r in range(1, d):
        moved = [e_ops[r] @ v1 for v1 in accepted]
        copies.append([v / np.sqrt(v.dot(v)) for v in moved])
    return np.array(copies).reshape(d, len(accepted), m_size)


def _orbit_shapes(maps: np.ndarray):
    """The orbits of a group acting on ``range(size)``, grouped by shape.

    ``maps[e, p]`` is the image of point p under element e.  Returns the
    number of orbits and, per distinct local action, ``(orbits, members,
    local)``: the indices of its orbits (numbered by ascending least
    member), their members (one row per orbit, ascending) and the local
    action shared by all of them.
    """
    order, size = maps.shape
    # each orbit's least member, ascending
    reps = np.flatnonzero(maps.min(axis=0) == np.arange(size))
    # column o lists orbit o's members ascending, each |stabilizer| times
    images = np.sort(maps[:, reps], axis=0)
    stride = order // (1 + np.count_nonzero(np.diff(images, axis=0), axis=0))
    pos = np.empty(size, dtype=np.uint8)  # position of a point in its orbit
    pos[images] = np.arange(order)[:, None] // stride
    # column[o, e]: position of g_e . r for the least member r of orbit o.
    # The maps form a group, so g_e sends member g_f . r to (g_e g_f) . r:
    # equal columns mean equal orbit size and equal local action
    column = np.ascontiguousarray(pos[maps[:, reps]].T)
    _, first, shape_of = np.unique(
        column.view(np.dtype((np.void, order))).ravel(),
        return_index=True, return_inverse=True)
    out = []
    for s, o in enumerate(first):
        orbits = np.flatnonzero(shape_of == s)
        out.append((orbits, images[::stride[o], orbits].T,
                    pos[maps[:, images[::stride[o], o]]]))
    return len(reps), out


def _orbit_rows(shapes, n_orbits: int, vectors: list[np.ndarray],
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Copy the vectors of each orbit shape onto each of its orbits, as
    read-only ``(index, weight)`` arrays of shape (rows, width): row i has
    weight[i, k] at pattern index[i, k], zero-padded to ``width`` (at least
    the largest orbit).  ``n_orbits, shapes`` are ``_orbit_shapes``', and
    ``vectors[s]`` (accepted x orbit size) holds shape s's vectors on its
    members in order.  Rows are ordered by orbit (by least member), then
    accepted vector."""
    counts = np.zeros(n_orbits, dtype=np.int64)
    for (orbits, _, _), vecs in zip(shapes, vectors):
        counts[orbits] = len(vecs)
    start = np.cumsum(counts) - counts
    index = np.zeros((counts.sum(), width), dtype=np.int64)
    weight = np.zeros((counts.sum(), width))
    for (orbits, members, _), vecs in zip(shapes, vectors):
        accepted, size = vecs.shape
        rows = start[orbits][:, None] + np.arange(accepted)
        index[rows, :size] = members[:, None, :]
        weight[rows, :size] = vecs
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _build_basis(model: EquivariantModel, power: int) -> SymmetryAdaptedBasis:
    """Assemble the adapted basis of the l-th tensor power.

    The projector arithmetic of a G-orbit depends only on its local action,
    so it runs once per distinct local action (orbit shape) and its vectors
    are copied onto every orbit of that shape (``_orbit_rows``).  Columns
    are ordered by (t, r), then orbit representative ascending, then
    accepted vector.
    """
    size = K ** power
    mult = model.multiplicities(power)
    if model.order == 1:
        steps = np.arange(size + 1)
        tags = tuple((0, 0, j) for j in range(size))
        return SymmetryAdaptedBasis(model, power,
                                    (np.ones(size), steps[:-1], steps), tags)

    n_orbits, shapes = _orbit_shapes(pattern_maps(model.name, power))
    nnz, rows, data = [], [], []
    for t, ir in enumerate(model.irreps):
        weights = ir.dim / model.order * ir.matrices[:, :, 0]
        vectors = [_copy_vectors(local, weights) for _, _, local in shapes]
        for r in range(ir.dim):
            # no orbit is larger than the group
            index, weight = _orbit_rows(shapes, n_orbits,
                                        [vecs[r] for vecs in vectors],
                                        model.order)
            if len(index) != mult[t]:
                raise AssertionError(
                    f"{model.name}: projector image rank {len(index)} "
                    f"!= multiplicity {mult[t]} for irrep {ir.name}")
            keep = np.abs(weight) > 1e-14
            nnz.append(keep.sum(axis=1))
            rows.append(index[keep])
            data.append(weight[keep])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(nnz))))
    columns = (np.concatenate(data), np.concatenate(rows), indptr)
    tags = tuple((t, r, j) for t in range(model.n_irreps)
                 for r in range(model.dims[t]) for j in range(mult[t]))
    return SymmetryAdaptedBasis(model, power, columns, tags)


# ---------------------------------------------------------------------------
# Thin-flattening blocks through an abelian label group
# ---------------------------------------------------------------------------

class CliffordReduction:
    """Where the first copy of each irrep lives in the coordinates of a
    one-site character basis, at every tensor power.

    The label group N is the model itself when it is abelian, else K81,
    which is normal in K80 and JC69 and regular on the states, so every
    element is v h with v in N and h in H, the stabiliser of state A.  In
    the Kronecker powers of N's one-site adapted basis, v multiplies each
    pattern by its label's character (the product of its digits'
    characters) and h permutes the digits of every pattern alike.

    For irrep t, D_t(v) e_A splits over N's characters; c_t is the first
    label it touches and u_t the unit vector of its part there (e_A itself
    when e_A is an N-eigenvector; for K80's E it is not).  Copy u_t of t at
    power l then lies on the label-c_t patterns, as the image of
    (d_t/|H|) sum_h <u_t, D_t(h) u_t> h^(x l) over the stabiliser H_c of
    c_t in H: the first copy of an irrep of H_c, found orbit by orbit as in
    ``_build_basis``.  When H_c is trivial (every irrep of an abelian model,
    and K80's E) that copy is the whole label class.  Nothing is
    hard-coded: labels and weights are read off the irrep matrices.

    As N is regular on the states and H acts on it by automorphisms, the
    label-c class at power l holds one pattern per first l - 1 digits, and
    H_c moves it as it moves those digits.  So the orbits are found once per
    stabiliser and power, on the power-(l - 1) patterns, for all its irreps.
    """

    def __init__(self, model: EquivariantModel):
        self.model = model
        self.labels = model if model.abelian else builtin_model("K81")
        basis = symmetry_adapted_basis(self.labels, 1).dense()
        self.digit_labels, products = _label_table(self.labels)
        in_group = [model._index.get(v) for v in self.labels.elements]
        stab = [i for i, g in enumerate(model.elements) if g[0] == 0]
        if None in in_group or self.labels.order * len(stab) != model.order:
            raise AssertionError(f"{model.name} is not {self.labels.name} "
                                 f"times the stabiliser of a state")
        # the stabiliser acts on the one-site basis by permuting its vectors
        perms = np.array(model.elements)[stab]
        moved = basis.T @ _perm_matrices(perms) @ basis
        self._perms = moved.argmax(axis=1)
        if not np.allclose(moved, _perm_matrices(self._perms), atol=1e-12):
            raise AssertionError(f"{model.name}: a stabiliser element "
                                 f"does not permute the one-site basis")
        # moves[e]: how stabiliser element e permutes the labels, which must
        # be an automorphism of N for the orbits of ``first_copies``
        moves = np.empty_like(self._perms)
        moves[:, self.digit_labels] = self.digit_labels[self._perms]
        if len(stab) > 1 and (
                sorted(self.digit_labels) != list(range(K))
                or (moves[:, products] != products[moves[:, :, None],
                                                   moves[:, None, :]]).any()):
            raise AssertionError(f"{model.name}: the stabiliser of a "
                                 f"label moves its patterns off it")
        irrep_labels, self._stabilisers = [], []
        for ir in model.irreps:
            # part of e_A in each character's eigenspace of D_t over N
            first = ir.matrices[in_group][:, :, 0]
            parts = self.labels.characters @ first / self.labels.order
            lengths = np.linalg.norm(parts, axis=1)
            c = int(np.flatnonzero(lengths > 1e-6)[0])
            u = parts[c] / lengths[c]
            digit = int(np.flatnonzero(self.digit_labels == c)[0])
            keep = tuple(np.flatnonzero(
                self.digit_labels[self._perms[:, digit]] == c).tolist())
            weights = np.array([u @ ir.matrices[stab[e]] @ u for e in keep])
            weights *= ir.dim / len(stab)
            if len(keep) == 1 and not np.isclose(weights[0], 1.0):
                raise AssertionError(f"{model.name}:{ir.name} has no copy on "
                                     f"one label class")
            irrep_labels.append(c)
            self._stabilisers.append((keep, weights))
        self.irrep_labels = tuple(irrep_labels)
        self._first_copies: dict[int, tuple] = {}

    def first_copies(self, power: int) -> tuple:
        """Per irrep t, ``None`` when its first copy at this power is the
        whole class of label-c_t patterns, else ``(index, weight)``: arrays
        of shape (m_t, s) such that first-copy vector j is the sum over k of
        weight[j, k] times label-class pattern index[j, k] (its position in
        the class), zero-padded to s, the order of the stabiliser of c_t."""
        found = self._first_copies.get(power)
        if found is None:
            # orbits per stabiliser, on the positions of any class it fixes
            # (the power-(l - 1) patterns); pieces per stabiliser and weights
            orbits, made, pieces = {}, {}, []
            for t, (keep, weights) in enumerate(self._stabilisers):
                if len(keep) == 1:
                    pieces.append(None)
                    continue
                if keep not in orbits:
                    orbits[keep] = _orbit_shapes(_element_row(
                        self._perms[list(keep)], power - 1,
                        np.empty((len(keep), K ** (power - 1)), np.int64)))
                key = keep, weights.tobytes()
                if key not in made:
                    n_orbits, shapes = orbits[keep]
                    # no orbit is larger than the stabiliser
                    made[key] = _orbit_rows(
                        shapes, n_orbits,
                        [_copy_vectors(local, weights[:, None])[0]
                         for _, _, local in shapes], len(keep))
                expected = self.model.multiplicities(power)[t]
                if len(made[key][0]) != expected:
                    raise AssertionError(
                        f"{self.model.name}: stabiliser image rank "
                        f"{len(made[key][0])} != multiplicity {expected} "
                        f"for irrep {self.model.irreps[t].name}")
                pieces.append(made[key])
            found = self._first_copies.setdefault(power, tuple(pieces))
        return found


@lru_cache(maxsize=None)
def clifford_reduction(model: EquivariantModel) -> CliffordReduction:
    return CliffordReduction(model)


@lru_cache(maxsize=None)
def _label_table(model: EquivariantModel) -> tuple[np.ndarray, np.ndarray]:
    """For an abelian model, the label (irrep) of each one-site adapted
    basis vector, and products[a, b], the label whose character is
    chi_a * chi_b."""
    digit_labels = np.array([t for t, _, _ in
                             symmetry_adapted_basis(model, 1).tags])
    chars = model.characters
    same = (chars[:, None, None, :] * chars[None, :, None, :]
            == chars[None, None, :, :]).all(axis=-1)
    return digit_labels, same.argmax(axis=-1)


@lru_cache(maxsize=None)
def label_classes(model: EquivariantModel,
                  power: int) -> tuple[np.ndarray, ...]:
    """For an abelian model, per irrep c the power-l patterns of the
    Kronecker power of its one-site adapted basis (most significant digit
    first) whose digits' characters multiply to c, ascending."""
    digit_labels, products = _label_table(model)
    # row a: the labels of a pattern of label a extended by each digit
    extend = products[:, digit_labels]
    labels = np.zeros(1, dtype=np.int64)
    for _ in range(power):
        labels = extend[labels].ravel()
    found = tuple(np.flatnonzero(labels == c) for c in range(model.n_irreps))
    for members in found:
        members.setflags(write=False)
    return found


def expected_rank_vector(model: EquivariantModel, tree: TreeTopology,
                         split: Bipartition) -> MultiplicityVector:
    """The rank ceiling m(c) a tensor from ``tree`` can attain on the thin
    flattening along ``split``, where c = ``min_edge_cut(tree, split)`` is
    the fewest edges whose removal separates its two sides."""
    return model.multiplicities(min_edge_cut(tree, split))
