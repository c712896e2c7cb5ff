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

A model fit's group average never holds the |G| x k^l table of pattern
images, nor a k^l array: it sums over G as a product of sums over cyclic
subgroups, gathering block by block, over the blocks of one G-orbit of high
digits at a time, in a buffer of |G| blocks.  Nested models share one walk:
the largest group's factors are ordered so that their running products are
the smaller groups, and each smaller group's average is read from the
buffer at the stage where its factors are complete.

Scoring builds no basis above power 1 and averages by masking.
``CliffordReduction`` places the first copy of every irrep on one label
class of the Kronecker powers of an abelian label group's one-site basis,
where the stabiliser of a state acts by permuting digits, and builds that
copy orbit by orbit with the same machinery as the bases: the orbits once
per stabiliser, at the highest power asked so far.  In those coordinates
the label group's average is the class of label 0, and the model's is that
class averaged over the stabiliser, one gather per element.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .records import Record
from .trees import Bipartition, TreeTopology, min_edge_cut

STATES = "ACGT"        # the state alphabet, in index order
K = 4
MODEL_NAMES = ("GMM", "SSM", "K81", "K80", "JC69")

MAX_POWER = 12          # k^l capacity guard for multiplicities and bases
_BLOCK_DIGITS = 7       # orbit averages gather blocks of <= k^7 patterns
_ORBIT_BYTES = 2 ** 20  # an orbit walk's buffer: |G| blocks of floats

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


def _close(a: np.ndarray, b: np.ndarray, atol: float) -> np.ndarray:
    """``np.isclose(a, b, atol=atol)`` on finite values, without its set-up
    cost: |a - b| <= atol + 1e-5 |b| elementwise."""
    return np.abs(a - b) <= atol + 1e-5 * np.abs(b)


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


class Irrep(Record):
    """One irreducible representation: a name, its dimension, and the matrix
    D(g) for every group element (indexed like the model's element list)."""

    name: str
    dim: int
    matrices: np.ndarray  # shape (|G|, dim, dim), read-only


class MultiplicityVector(Record):
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
        # the irreps of each dimension in one stack, so that every check is
        # one array pass per dimension
        by_dim: dict[int, list[int]] = {}
        for t, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(t)
        stacks = [(which, np.stack([self.irreps[t].matrices for t in which]))
                  for which in by_dim.values()]
        # integral character values per element, exactness asserted
        traces = np.empty((self.n_irreps, self.order))
        for which, mats in stacks:
            traces[which] = np.trace(mats, axis1=2, axis2=3)
        rounded = np.rint(traces)
        bad = np.flatnonzero(~_close(traces, rounded, 1e-9).all(axis=1))
        if bad.size:
            raise AssertionError(
                f"{name}: non-integral character {self.irreps[bad[0]].name}")
        self.characters = rounded.astype(np.int64)
        self.characters.setflags(write=False)
        self._multiplicities: dict[int, MultiplicityVector] = {}
        # product[i, j] = index of g_i after g_j, built and verified once
        self._product, inverses = self._verify(perms, stacks)
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

    def _verify(self, perms: np.ndarray, stacks: list
                ) -> tuple[np.ndarray, np.ndarray]:
        """Assert the axioms; returns the product table and the inverses.
        ``stacks`` holds ``(irrep indices, their matrices)`` per dimension."""
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
        # per irrep: D(id) = 1, orthogonal, a homomorphism
        holds = np.empty((self.n_irreps, 3), dtype=bool)
        for which, mats in stacks:
            count, n, d = mats.shape[:3]
            eye = np.eye(d)
            # block (i, j) of one product of stacked matrices is D(g_i) D(g_j)
            pairs = (mats.reshape(count, n * d, d)
                     @ mats.transpose(0, 2, 1, 3).reshape(count, d, n * d))
            holds[which] = np.column_stack((
                _close(mats[:, 0], eye, 1e-12).all(axis=(1, 2)),
                _close(mats @ mats.transpose(0, 1, 3, 2), eye,
                       1e-12).all(axis=(1, 2, 3)),
                _close(pairs.reshape(count, n, d, n, d),
                       mats[:, product].transpose(0, 1, 3, 2, 4),
                       1e-12).all(axis=(1, 2, 3, 4))))
        for ir, row in zip(self.irreps, holds):
            for ok, fault in zip(row, ("D(id) is not the identity",
                                       "not orthogonal", "not a homomorphism")):
                if not ok:
                    raise AssertionError(f"{self.name}:{ir.name} {fault}")
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


def model_chain(models: Iterable[EquivariantModel]
                ) -> tuple[EquivariantModel, ...]:
    """The nontrivial groups among ``models``, once each and smallest
    first; a ValueError unless each lies inside the next.  The built-ins
    nest: GMM < SSM < K81 < K80 < JC69."""
    chain = sorted({m for m in models if m.order > 1}, key=lambda m: m.order)
    for small, large in zip(chain, chain[1:]):
        if not set(small.elements) <= set(large.elements):
            raise ValueError(f"models {small.name} and {large.name} do not "
                             f"nest: {small.name} is not a subgroup of "
                             f"{large.name}")
    return tuple(chain)


@lru_cache(maxsize=None)
def _chain_factors(chain: tuple[EquivariantModel, ...]
                   ) -> tuple[tuple[tuple[Perm, ...], ...], tuple[int, ...]]:
    """Cyclic factors of the last group of a ``model_chain`` whose running
    products are its groups, and per group how many factors make it: the
    first group's ``_cyclic_factors``, then for each larger group subgroups
    {1, c} or {1, c, c^2} of it (prime orders, which ``_sum_images``
    applies in place), involutions first, each taken when it multiplies the
    elements covered so far into as many new ones and their count still
    divides the group's order.  A chain of one is ``_cyclic_factors``."""
    top = chain[-1]
    factors = list(_cyclic_factors(chain[0]))
    ends = [len(factors)]
    product, index = top._product, top._index
    covered = np.zeros(top.order, dtype=bool)
    covered[[index[g] for g in chain[0].elements]] = True
    for model in chain[1:]:
        cycles = []  # c, or c and c^2, of each subgroup of order 2 or 3
        for g in model.elements:
            square = _compose(g, g)
            if g != _IDENTITY and _IDENTITY in (square, _compose(g, square)):
                cycles.append([g] if square == _IDENTITY else [g, square])
        cycles.sort(key=len)  # involutions first, stably
        while covered.sum() < model.order:
            for cycle in cycles:
                images = product[covered][:, [index[c] for c in cycle]]
                size = covered.sum() * (len(cycle) + 1)
                if (model.order % size == 0 and not covered[images].any()
                        and len(set(images.flat)) == images.size):
                    covered[images] = True
                    factors.append((_IDENTITY, *cycle))
                    break
            else:
                raise AssertionError(f"{model.name}: no chain factorization")
        ends.append(len(factors))
    return tuple(factors), tuple(ends)


def _sum_images(acc: np.ndarray, blocks: np.ndarray, first, rest,
                scratch: np.ndarray) -> None:
    """Add to each block of ``acc`` its images under every non-identity
    element of G, in place: for the blocks of a G-invariant set of high
    patterns, copied into ``acc``, this leaves |G| times their average.

    ``first`` has, per non-identity element g of the first cyclic factor,
    g's row at the low digits and, per block i of ``acc``, the block of
    ``blocks`` that g brings to block i.  ``rest`` has, per later factor
    {1, c, ..., c^(m-1)} of prime order m, the rows of c, ..., c^(m-1)
    stacked and, per block i, the blocks of ``acc`` that they bring to i.
    So c fixes a block or moves it in an m-cycle.  A fixed block adds its
    m - 1 gathers of itself, made first in ``scratch``.  In a cycle the
    least block is summed from the old m, and since the sums are invariant
    under c, the others become c's gathers of it back along the cycle: for
    an involution, the partner's new block is c's gather of the first's.
    Every gather into a sum is made in ``scratch[0]``."""
    # every index is in range, and mode="raise" would buffer the output
    tmp = scratch[0]
    for row, sources in first:
        for i, h in enumerate(sources.tolist()):
            acc[i] += np.take(blocks[h], row, out=tmp, mode="clip")
    for rows, partners in rest:
        for i, cycle in enumerate(partners.T.tolist()):
            if cycle[0] == i:
                for row, out in zip(rows, scratch):
                    np.take(acc[i], row, out=out, mode="clip")
                for out in scratch[:len(rows)]:
                    acc[i] += out
            elif i < min(cycle):
                for j, row in zip(cycle, rows):
                    acc[i] += np.take(acc[j], row, out=tmp, mode="clip")
                for j, k in zip([i, *cycle[:0:-1]], cycle[::-1]):
                    np.take(acc[j], rows[0], out=acc[k], mode="clip")


def _checked(values, power: int) -> np.ndarray:
    """``values`` as floats, once checked to hold k^l entries."""
    values = np.asarray(values, dtype=float)
    if len(values) != K ** power:
        raise ValueError(f"expected {K ** power} entries for power {power}, "
                         f"got {len(values)}")
    return values


def _orbit_digits(model: EquivariantModel) -> int:
    """The most low digits, up to 7, for which |G| blocks of k^l floats fit
    in ``_ORBIT_BYTES``: 6 for JC69, 7 for the others."""
    return max(low for low in range(_BLOCK_DIGITS + 1)
               if model.order * K ** low * 8 <= _ORBIT_BYTES)


def orbit_stages(values: np.ndarray, chain: tuple[EquivariantModel, ...],
                 power: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Each block of ``values`` beside its average under each group of a
    ``model_chain``, as (k, block, average) for ``chain[k]``, from one walk
    over the orbits of high digits of the last group, without a
    tensor-sized buffer.  An orbit's blocks are copied into one buffer of
    |G| blocks (at most 1 MiB, ``_orbit_digits``) and their images summed
    there (``_sum_images``), one group's factors (``_chain_factors``) at a
    time; after each group's, every block's average is divided out into a
    block-sized scratch, which the next block, factor or orbit writes over.
    Each factor element's rows are built once; the orbits are the classes
    of high patterns that those elements join, each labelled by its least
    member."""
    values = _checked(values, power)
    factors, ends = _chain_factors(chain)
    top = chain[-1]
    low = min(power, _orbit_digits(top))
    blocks = values.reshape(-1, K ** low)

    def rows_of(g):  # one element's rows, or a stack of elements' rows
        g = np.asarray(g)
        return (_element_row(g, low, np.empty(g.shape[:-1] + (K ** low,),
                                              np.int64)),
                _element_row(g, power - low, np.empty(
                    g.shape[:-1] + (len(blocks),), np.int64)))

    first = [rows_of(g) for g in factors[0][1:]]
    rest = [rows_of(f[1:]) for f in factors[1:]]
    label = np.arange(len(blocks))
    while True:
        last = label.copy()
        for _, high in first + rest:
            for each in high.reshape(-1, len(blocks)):
                np.minimum(label, label[each], out=label)
        if np.array_equal(label, last):
            break
    order = np.argsort(label, kind="stable")  # by orbit, members ascending
    place = np.empty(len(blocks), np.int64)   # a block's row in the buffer
    buffer = np.empty((top.order, K ** low))
    scratch = np.empty((max(map(len, factors[1:]), default=2) - 1, K ** low))
    for members in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        acc = np.take(blocks, members, axis=0, out=buffer[:len(members)],
                      mode="clip")
        place[members] = np.arange(len(members))
        done, sources = 0, first  # later factors summed so far
        for k, end in enumerate(ends):
            _sum_images(acc, blocks,
                        ((row, high[members]) for row, high in sources),
                        ((rows, place[high[:, members]])
                         for rows, high in rest[done:end - 1]), scratch)
            done, sources = end - 1, ()
            for h, total in zip(members.tolist(), acc):
                yield k, blocks[h], np.divide(total, chain[k].order,
                                              out=scratch[0])


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

    n_orbits, shapes = _orbit_shapes(_element_row(
        np.array(model.elements), power,
        np.empty((model.order, size), dtype=np.int64)))
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
    H_c moves it as it moves those digits.  So the orbits are found on the
    power-(l - 1) patterns, for all irreps of a stabiliser at once, and once
    for all powers up to the highest asked so far.
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
        if not _close(moved, _perm_matrices(self._perms), 1e-12).all():
            raise AssertionError(f"{model.name}: a stabiliser element "
                                 f"does not permute the one-site basis")
        # moves[e]: how stabiliser element e permutes the labels, which must
        # be an automorphism of N for the orbits of ``first_copies``; and
        # digit 0 must stay put for those orbits to serve lower powers
        moves = np.empty_like(self._perms)
        moves[:, self.digit_labels] = self.digit_labels[self._perms]
        if len(stab) > 1 and (
                sorted(self.digit_labels) != list(range(K))
                or self._perms[:, 0].any()
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
            if len(keep) == 1 and not _close(weights[0], 1.0, 1e-8):
                raise AssertionError(f"{model.name}:{ir.name} has no copy on "
                                     f"one label class")
            irrep_labels.append(c)
            self._stabilisers.append((keep, weights))
        self.irrep_labels = tuple(irrep_labels)
        self._first_copies: dict[int, tuple] = {}
        self._top, self._rows = 0, []   # the rows at the highest power

    def stabiliser_average(self, kept: np.ndarray) -> np.ndarray:
        """The model's average of ``kept``, the label group's: the class of
        label 0 of a transform, its last axis the one digit completing a
        pattern (``CharacterTransform``), averaged over the stabiliser H.
        H permutes all digits alike, so an element is one gather, by its
        rows at the leading and at the trailing half of the other axes."""
        if len(self._perms) == 1 or not kept.size:
            return kept
        power = kept.ndim - 1
        lead = power // 2
        source = kept.reshape(K ** lead, -1)
        total = source.copy()
        head, tail = (np.empty(K ** m, np.int64) for m in (lead, power - lead))
        for perm in self._perms[1:]:
            total += source[_element_row(perm, lead, head)[:, None],
                            _element_row(perm, power - lead, tail)]
        total /= len(self._perms)
        return total.reshape(kept.shape)

    def first_copies(self, power: int) -> tuple:
        """Per irrep t, ``None`` when its first copy at this power is the
        whole class of label-c_t patterns, else ``(index, weight)``: arrays
        of shape (m_t, s) such that first-copy vector j is the sum over k of
        weight[j, k] times label-class pattern index[j, k] (its position in
        the class), zero-padded to s, the order of the stabiliser of c_t.

        The rows are built once, at the highest power asked so far, and a
        lower power takes a prefix of them.  The stabiliser fixes digit 0,
        so the power-l positions are the first 4^(l - 1) of any higher power
        and no orbit leaves them; rows are ordered by orbit, numbered by
        least member, so the power-l rows are those whose least member,
        ``index[:, 0]``, is one of those positions."""
        found = self._first_copies.get(power)
        if found is None:
            if power > self._top:
                self._top, self._rows = power, self._stabiliser_rows(power)
            pieces = []
            for t, rows in enumerate(self._rows):
                if rows is None:
                    pieces.append(None)
                    continue
                index, weight = rows
                count = np.searchsorted(index[:, 0], K ** (power - 1))
                expected = self.model.multiplicities(power)[t]
                if count != expected:
                    raise AssertionError(
                        f"{self.model.name}: stabiliser image rank {count} "
                        f"!= multiplicity {expected} for irrep "
                        f"{self.model.irreps[t].name}")
                pieces.append((index[:count], weight[:count]))
            found = self._first_copies.setdefault(power, tuple(pieces))
        return found

    def _stabiliser_rows(self, power: int) -> list:
        """Per irrep, ``None`` or the ``_orbit_rows`` of its stabiliser and
        weights at this power, with the orbits found once per stabiliser on
        the positions of any class it fixes (the power-(l - 1) patterns)."""
        orbits, made, rows = {}, {}, []
        for keep, weights in self._stabilisers:
            if len(keep) == 1:
                rows.append(None)
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
            rows.append(made[key])
        return rows


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


def pattern_labels(model: EquivariantModel, power: int) -> np.ndarray:
    """For an abelian model, the label of each power-l pattern of the
    Kronecker power of its one-site adapted basis (most significant digit
    first): the irrep whose character is the product of its digits', one
    uint8 per pattern."""
    digit_labels, products = _label_table(model)
    # row a: the labels of a pattern of label a extended by each digit
    extend = products[:, digit_labels].astype(np.uint8)
    labels = np.zeros(1, dtype=np.uint8)
    for _ in range(power):
        labels = extend[labels].ravel()
    return labels


@lru_cache(maxsize=None)
def label_classes(model: EquivariantModel,
                  power: int) -> tuple[np.ndarray, ...]:
    """For an abelian model, per irrep c the power-l patterns of the
    Kronecker power of its one-site adapted basis (most significant digit
    first) whose digits' characters multiply to c, ascending."""
    labels = pattern_labels(model, power)
    found = tuple(np.flatnonzero(labels == c) for c in range(model.n_irreps))
    for members in found:
        members.setflags(write=False)
    return found


def completing_digits(model: EquivariantModel) -> tuple[np.ndarray, ...]:
    """For an abelian model, per label c its one-site digits, ascending:
    the digits that complete a pattern of label c to label 0 when every
    label is its own inverse.  Raises ValueError unless it is, and every
    label has as many digits: only then does the class of label 0 hold
    every split block, with k digits closing each of its patterns."""
    digits = label_classes(model, 1)
    # the pattern (d, d) has label 0 iff d's label is its own inverse
    if (pattern_labels(model, 2)[::K + 1].any()
            or any(len(d) != len(digits[0]) for d in digits)):
        raise ValueError(f"{model.name}: not every label is its own "
                         f"inverse and of as many digits as the others")
    return digits


def copy_label_zero(full: np.ndarray, model: EquivariantModel,
                    kept: np.ndarray, mask: np.ndarray) -> None:
    """Copy into ``kept``, of ``full``'s shape (K, ..., K) but k long on its
    last axis (k as in ``completing_digits``), the entries of ``full``
    whose pattern has label 0: at each pattern of the other axes, the k
    digits on the last axis that complete it, ascending.  ``mask`` is
    scratch for as many booleans as there are such patterns."""
    if not kept.size:  # a tensor over no positions has no split
        return
    power = kept.ndim - 1
    # a pattern's label is its leading digits' times its trailing digits';
    # heads[:, d] is the leading digits' times d's
    heads = pattern_labels(model, power // 2 + 1).reshape(-1, K)
    tails = pattern_labels(model, power - power // 2)
    for digits in completing_digits(model):
        # the patterns whose label the digits of ``digits`` undo
        np.equal(tails, heads[:, digits[0], None],
                 out=mask.reshape(len(heads), -1))
        for j, d in enumerate(digits):
            np.copyto(kept[..., j], full[..., d],
                      where=mask.reshape(kept.shape[:-1]))


def expected_rank_vector(model: EquivariantModel, tree: TreeTopology,
                         split: Bipartition) -> MultiplicityVector:
    """The rank ceiling m(c) a tensor from ``tree`` can attain on the thin
    flattening along ``split``, where c = ``min_edge_cut(tree, split)`` is
    the fewest edges whose removal separates its two sides."""
    return model.multiplicities(min_edge_cut(tree, split))
