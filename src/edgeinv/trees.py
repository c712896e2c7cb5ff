"""Unrooted leaf-labelled tree topologies, splits, and split-based reconstruction.

Leaves carry integer labels 1..n; interior vertices get arbitrary ids > n.
Topology identity is decided by the set of nontrivial edge splits, which is
sound for trivalent trees: a pairwise-compatible system of n-3 distinct
nontrivial splits determines a unique trivalent tree and vice versa.

Every tree is hung from leaf 1 once, when it is built: a parent map plus the
order in which the walk visits the vertices.  Rooted so, an edge's split is
the set of leaves below its child, and a compatible split system is a family
of nested clusters of {2..n}, from which ``tree_from_splits`` builds the tree.
Edge splits, the Newick root and the fewest edges separating the two sides of
a bipartition (the rank ceiling of its flattening is m of that count) all
read that one pass.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional

from .records import Record


class SplitSystemError(ValueError):
    """A split set cannot be realized as a trivalent tree.

    Attributes
    ----------
    reason : str
        One of "incompatible", "cardinality", "invalid".
    pair : tuple or None
        The offending pair of splits when reason == "incompatible".
    """

    def __init__(self, message: str, reason: str, pair=None):
        super().__init__(message)
        self.reason = reason
        self.pair = pair


class Bipartition(Record):
    """A bipartition of the leaf set {1..n}.

    Canonical storage: ``side`` is the block NOT containing leaf 1, so two
    bipartitions are equal iff they cut the leaf set the same way regardless
    of which block was handed to the constructor.
    """

    n_leaves: int
    side: frozenset[int]

    def __init__(self, labels: Iterable[int], n_leaves: int):
        labels = frozenset(labels)
        if not labels:
            raise ValueError("bipartition side must be nonempty")
        universe = frozenset(range(1, n_leaves + 1))
        if not labels <= universe:
            raise ValueError(f"labels {sorted(labels)} not within 1..{n_leaves}")
        if labels == universe:
            raise ValueError("bipartition side must be a proper subset")
        if 1 in labels:
            labels = universe - labels
        self.__dict__.update(n_leaves=n_leaves, side=labels)

    @classmethod
    def from_side(cls, side: frozenset[int], n_leaves: int) -> "Bipartition":
        """The bipartition with canonical side ``side``, which the caller
        knows to be a nonempty subset of 2..n_leaves; nothing is checked."""
        split = cls.__new__(cls)
        split.__dict__.update(n_leaves=n_leaves, side=side)
        return split

    @property
    def other(self) -> frozenset[int]:
        """The block containing leaf 1."""
        return frozenset(range(1, self.n_leaves + 1)) - self.side

    @property
    def sides(self) -> tuple[frozenset[int], frozenset[int]]:
        """(block containing leaf 1, block not containing leaf 1)."""
        return self.other, self.side

    @property
    def is_trivial(self) -> bool:
        return min(len(self.side), self.n_leaves - len(self.side)) == 1

    def sort_key(self) -> tuple:
        return (min(len(self.side), self.n_leaves - len(self.side)),
                tuple(sorted(self.side)))

    def __str__(self) -> str:
        a, b = self.sides
        return ",".join(map(str, sorted(a))) + "|" + ",".join(map(str, sorted(b)))

    @classmethod
    def parse(cls, text: str, n_leaves: int) -> "Bipartition":
        """Parse "1,2|3,4" form; either block may be given first."""
        left, _, right = text.partition("|")
        if not right:
            raise ValueError(f"not a split spec: {text!r}")
        a = [int(x) for x in left.split(",") if x.strip()]
        b = [int(x) for x in right.split(",") if x.strip()]
        if sorted(a + b) != list(range(1, n_leaves + 1)):
            raise ValueError(f"split {text!r} does not partition 1..{n_leaves}")
        return cls(a, n_leaves)


class TreeTopology:
    """An unrooted tree with labelled leaves 1..n.

    Parameters
    ----------
    n_leaves : int
    edges : iterable of (u, v) vertex-id pairs.  Leaves are 1..n_leaves;
        interior ids may be any integers > n_leaves; each must have degree 3.
    """

    def __init__(self, n_leaves: int, edges: Iterable[tuple[int, int]]):
        self.n_leaves = n_leaves
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        adjacency: dict[int, list[int]] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        if n_leaves == 1 and not self.edges:
            adjacency = {1: []}
        self.adjacency: Mapping[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in sorted(adjacency.items())
        }
        self._validate()
        self._splits: Optional[tuple[Bipartition, ...]] = None

    def _validate(self) -> None:
        n = self.n_leaves
        verts = set(self.adjacency)
        if n < 1:
            raise ValueError("need at least one leaf")
        leaves = set(range(1, n + 1))
        if not leaves <= verts:
            raise ValueError("every leaf label 1..n must appear as a vertex")
        if len(self.edges) != len(verts) - 1:
            raise ValueError("edge count does not match a tree")
        # hang the tree from leaf 1: each vertex's neighbour towards it, and
        # the visiting order, in which every vertex follows its parent
        parent = {1: 1}
        order = [1]
        for v in order:
            for w in self.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        if len(order) != len(verts):
            raise ValueError("graph is not connected")
        self._parent, self._order = parent, tuple(order)
        for leaf in leaves:
            if n > 1 and len(self.adjacency[leaf]) != 1:
                raise ValueError(f"leaf {leaf} must have degree 1")
        for v in verts - leaves:
            if len(self.adjacency[v]) != 3:
                raise ValueError(f"interior vertex {v} has degree "
                                 f"{len(self.adjacency[v])}, expected 3")

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.adjacency if v > self.n_leaves)

    def interior_splits(self) -> tuple[Bipartition, ...]:
        return tuple(s for s in edge_splits(self) if not s.is_trivial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeTopology):
            return NotImplemented
        return (self.n_leaves == other.n_leaves
                and frozenset(self.interior_splits())
                == frozenset(other.interior_splits()))

    def __hash__(self) -> int:
        return hash((self.n_leaves, frozenset(self.interior_splits())))

    def __repr__(self) -> str:
        return f"TreeTopology({to_newick(self)!r})"


def edge_splits(tree: TreeTopology) -> tuple[Bipartition, ...]:
    """One bipartition per edge, trivial ones (terminal edges) included.

    Trivial splits are recognizable via ``Bipartition.is_trivial``; the
    interior ones number n-3 for a trivalent tree.  An edge's split is read
    as the leaves below its child when the tree hangs from leaf 1.
    """
    if tree._splits is None:
        n = tree.n_leaves
        below = {v: {v} if v <= n else set() for v in tree._order}
        for v in reversed(tree._order[1:]):
            below[tree._parent[v]] |= below[v]
        found = [Bipartition.from_side(frozenset(below[v]), n)
                 for v in tree._order[1:]]
        tree._splits = tuple(sorted(found, key=Bipartition.sort_key))
    return tree._splits


def splits_compatible(a: Bipartition, b: Bipartition) -> bool:
    """True iff one of the four pairwise block intersections is empty."""
    if a.n_leaves != b.n_leaves:
        raise ValueError("splits live on different leaf universes")
    a1, a2 = a.sides
    b1, b2 = b.sides
    return (not a1 & b1 or not a1 & b2 or not a2 & b1 or not a2 & b2)


def tree_from_splits(splits: Iterable[Bipartition], n: int) -> TreeTopology:
    """Assemble the unique trivalent tree whose interior splits are ``splits``.

    Requires exactly n-3 distinct nontrivial pairwise-compatible splits;
    raises SplitSystemError otherwise (carrying the offending pair when the
    failure is an incompatibility).

    Rooted at leaf 1, the splits' sides are nested clusters of {2..n}: each
    side and each leaf hangs under the smallest side (or {2..n}) that strictly
    contains it, and {2..n} hangs from leaf 1.
    """
    splits = list(splits)
    for s in splits:
        if s.n_leaves != n:
            raise SplitSystemError(f"split {s} not over 1..{n}", "invalid")
        if s.is_trivial:
            raise SplitSystemError(f"trivial split {s} not allowed", "invalid")
    if len(set(splits)) != len(splits):
        raise SplitSystemError("duplicate splits", "invalid")
    if len(splits) != n - 3:
        raise SplitSystemError(
            f"got {len(splits)} splits, a trivalent tree on {n} leaves "
            f"needs exactly {n - 3}", "cardinality")
    for a, b in itertools.combinations(splits, 2):
        if not splits_compatible(a, b):
            raise SplitSystemError(f"incompatible pair: {a} vs {b}",
                                   "incompatible", pair=(a, b))

    nested = sorted((s.side for s in splits), key=len)
    nested.append(frozenset(range(2, n + 1)))
    vertex = {c: n + 1 + i for i, c in enumerate(nested)}
    edges = [(1, vertex[nested[-1]])]
    for leaf in range(2, n + 1):
        edges.append((leaf, vertex[next(c for c in nested if leaf in c)]))
    for c in nested[:-1]:
        edges.append((vertex[c], vertex[next(d for d in nested if c < d)]))
    tree = TreeTopology(n, edges)
    assert frozenset(tree.interior_splits()) == frozenset(splits)
    return tree


def min_edge_cut(tree: TreeTopology, split: Bipartition) -> int:
    """The fewest edges of ``tree`` whose removal leaves no path between the
    two sides of ``split``.

    One pass up the tree from its leaves: a vertex's two counts are the
    fewest edges cut below it when it stays with leaf 1's side or with the
    other one; a leaf cannot leave its own side.
    """
    if split.n_leaves != tree.n_leaves:
        raise ValueError("split does not match the tree's leaf set")
    cost = {v: [0, 0] for v in tree._order}
    for v in reversed(tree._order[1:]):
        stay = cost[v]
        if v <= tree.n_leaves:
            stay[v not in split.side] = math.inf
        up = cost[tree._parent[v]]
        up[0] += min(stay[0], stay[1] + 1)
        up[1] += min(stay[1], stay[0] + 1)
    return cost[1][0]


# ---------------------------------------------------------------------------
# Newick serialization.  Branch lengths are accepted on input and ignored;
# the unrooted tree is printed from the vertex where leaves 1, 2 and 3 meet.
# ---------------------------------------------------------------------------

def _median_of_first_three(tree: TreeTopology) -> int:
    """The interior vertex on the paths between leaves 1, 2 and 3."""
    on_path_to_2 = {1}
    v = 2
    while v != 1:
        on_path_to_2.add(v)
        v = tree._parent[v]
    v = 3
    while v not in on_path_to_2:
        v = tree._parent[v]
    return v


def to_newick(tree: TreeTopology, names: Optional[Mapping[int, str]] = None) -> str:
    """Render the unrooted tree, rooted for printing at the vertex where the
    paths between leaves 1, 2 and 3 meet, children ordered by their least
    leaf; the string depends on the topology only, not on vertex ids."""
    if names is None:
        names = {i: str(i) for i in range(1, tree.n_leaves + 1)}
    if tree.n_leaves == 1:
        return f"{names[1]};"
    if tree.n_leaves == 2:
        return f"({names[1]},{names[2]});"
    root = _median_of_first_three(tree)

    def render(v: int, parent: int) -> tuple[str, int]:
        if v <= tree.n_leaves:
            return names[v], v
        parts = [render(w, v) for w in tree.adjacency[v] if w != parent]
        parts.sort(key=lambda p: p[1])
        return "(" + ",".join(p[0] for p in parts) + ")", min(p[1] for p in parts)

    parts = [render(w, root) for w in tree.adjacency[root]]
    parts.sort(key=lambda p: p[1])
    return "(" + ",".join(p[0] for p in parts) + ");"


def from_newick(text: str) -> tuple[TreeTopology, dict[int, str]]:
    """Parse a Newick string into a topology plus a label -> taxon-name table.

    Leaf labels 1..n are assigned in sorted taxon-name order.  Degree-2
    vertices introduced by a rooted input are contracted away; the result
    must be trivalent.  While parsing, a leaf is its index in the list of
    taxon names and the k-th interior vertex (from 1) is -k; interior
    vertex -k becomes n + k.
    """
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    pos = 0
    leaf_names: list[str] = []
    edges: list[tuple[int, int]] = []
    interior = 0

    def peek() -> str:
        if pos >= len(text):
            raise ValueError("newick input ends before its tree does")
        return text[pos]

    def parse() -> int:
        nonlocal pos, interior
        if peek() == "(":
            pos += 1
            interior += 1
            node = -interior
            while True:
                child = parse()
                edges.append((node, child))
                if peek() == ",":
                    pos += 1
                    continue
                if peek() == ")":
                    pos += 1
                    break
            _skip_decoration()
            return node
        start = pos
        while pos < len(text) and text[pos] not in ",():;":
            pos += 1
        name = text[start:pos].strip()
        if not name:
            raise ValueError("empty taxon name in newick input")
        leaf_names.append(name)
        _skip_decoration()
        return len(leaf_names) - 1

    def _skip_decoration() -> None:
        # optional support value and/or :length after a node
        nonlocal pos
        while pos < len(text) and text[pos] not in ",()":
            pos += 1

    try:
        parse()
    except RecursionError:
        raise ValueError("newick input nested too deeply") from None
    if pos != len(text):
        raise ValueError(f"trailing characters in newick input: {text[pos:]!r}")
    if len(set(leaf_names)) != len(leaf_names):
        raise ValueError("duplicate taxon names")

    order = {name: i + 1 for i, name in enumerate(sorted(leaf_names))}
    n = len(leaf_names)
    ids = [order[name] for name in leaf_names]
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        u, v = (ids[x] if x >= 0 else n - x for x in (u, v))
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    # contract degree-2 vertices (e.g. a rooted binary input's root)
    for v in [v for v, ns in adjacency.items() if v > n and len(ns) == 2]:
        a, b = adjacency.pop(v)
        adjacency[a].discard(v)
        adjacency[b].discard(v)
        adjacency[a].add(b)
        adjacency[b].add(a)

    tree_edges = {tuple(sorted((u, w))) for u, ws in adjacency.items() for w in ws}
    tree = TreeTopology(n, tree_edges)
    return tree, {i: name for name, i in order.items()}
