"""Unrooted leaf-labelled tree topologies, splits, and split-based reconstruction.

Leaves carry integer labels 1..n; interior vertices get arbitrary ids > n.
Topology identity is decided by the set of nontrivial edge splits, which is
sound for trivalent trees: a pairwise-compatible system of n-3 distinct
nontrivial splits determines a unique trivalent tree and vice versa.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional


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


@dataclass(frozen=True, init=False)
class Bipartition:
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
        object.__setattr__(self, "n_leaves", n_leaves)
        object.__setattr__(self, "side", labels)

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


class BoughProfile(NamedTuple):
    """Counts of chain-equivalence classes on the two sides of a bipartition."""

    n1: int
    n2: int


class TreeTopology:
    """An unrooted tree with labelled leaves 1..n.

    Parameters
    ----------
    n_leaves : int
    edges : iterable of (u, v) vertex-id pairs.  Leaves are 1..n_leaves;
        interior ids may be any integers > n_leaves.
    trivalent : bool
        When set (default), every interior vertex must have degree exactly 3.
    """

    def __init__(self, n_leaves: int, edges: Iterable[tuple[int, int]],
                 trivalent: bool = True):
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
        self.trivalent = trivalent
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
        # connectivity
        seen = {next(iter(verts))}
        stack = list(seen)
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != verts:
            raise ValueError("graph is not connected")
        for leaf in leaves:
            if n > 1 and len(self.adjacency[leaf]) != 1:
                raise ValueError(f"leaf {leaf} must have degree 1")
        if self.trivalent:
            for v in verts - leaves:
                if len(self.adjacency[v]) != 3:
                    raise ValueError(f"interior vertex {v} has degree "
                                     f"{len(self.adjacency[v])}, expected 3")

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.adjacency if v > self.n_leaves)

    def leaves_behind(self, u: int, v: int) -> frozenset[int]:
        """Leaves in the component of u once edge (u, v) is removed."""
        seen = {u}
        stack = [u]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w != v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(x for x in seen if x <= self.n_leaves)

    def split_of_edge(self, u: int, v: int) -> Bipartition:
        return Bipartition(self.leaves_behind(u, v), self.n_leaves)

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
    interior ones number n-3 for a trivalent tree.
    """
    if tree._splits is None:
        found = []
        for u, v in tree.edges:
            found.append(tree.split_of_edge(u, v))
        tree._splits = tuple(sorted(found, key=Bipartition.sort_key))
    return tree._splits


def splits_compatible(a: Bipartition, b: Bipartition) -> bool:
    """True iff one of the four pairwise block intersections is empty."""
    if a.n_leaves != b.n_leaves:
        raise ValueError("splits live on different leaf universes")
    a1, a2 = a.sides
    b1, b2 = b.sides
    return (not a1 & b1 or not a1 & b2 or not a2 & b1 or not a2 & b2)


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


def tree_from_splits(splits: Iterable[Bipartition], n: int) -> TreeTopology:
    """Assemble the unique trivalent tree whose interior splits are ``splits``.

    Requires exactly n-3 distinct nontrivial pairwise-compatible splits;
    raises SplitSystemError otherwise (carrying the offending pair when the
    failure is an incompatibility).

    The assembly is iterative tree popping: starting from the star, splits
    are inserted smallest-side-first, each one splitting an interior vertex.
    """
    splits = list(splits)
    universe = set(range(1, n + 1))
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

    center = n + 1
    adjacency: dict[int, set[int]] = {center: set(universe)}
    for leaf in universe:
        adjacency[leaf] = {center}
    next_id = n + 2

    def component_leaves(start: int, banned: int) -> set[int]:
        seen, stack = {start}, [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w != banned and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return {x for x in seen if x <= n}

    for split in sorted(splits, key=Bipartition.sort_key):
        moved = split.side  # deterministic: peel off the side without leaf 1
        placed = False
        for v in sorted(v for v in adjacency if v > n):
            groups = {u: component_leaves(u, v) for u in adjacency[v]}
            if all(g <= moved or g.isdisjoint(moved) for g in groups.values()):
                to_move = [u for u, g in groups.items() if g <= moved]
                if not to_move or len(to_move) == len(groups):
                    continue
                w = next_id
                next_id += 1
                adjacency[v] -= set(to_move)
                adjacency[v].add(w)
                adjacency[w] = set(to_move) | {v}
                for u in to_move:
                    adjacency[u].discard(v)
                    adjacency[u].add(w)
                placed = True
                break
        if not placed:  # cannot happen for a pairwise-compatible system
            raise SplitSystemError(f"split {split} cannot be inserted",
                                   "incompatible", pair=(split,))

    edges = {tuple(sorted((u, v))) for u, vs in adjacency.items() for v in vs}
    tree = TreeTopology(n, edges)
    assert frozenset(tree.interior_splits()) == frozenset(splits)
    return tree


def _spanning_vertices(tree: TreeTopology, leaves: frozenset[int]) -> set[int]:
    """Vertices of the minimal subtree of ``tree`` containing ``leaves``."""
    if len(leaves) == 1:
        return set(leaves)
    keep = dict(tree.adjacency)
    degree = {v: len(ns) for v, ns in keep.items()}
    alive = set(keep)
    removable = [v for v in alive if degree[v] == 1 and v not in leaves]
    while removable:
        v = removable.pop()
        alive.discard(v)
        for w in tree.adjacency[v]:
            if w in alive:
                degree[w] -= 1
                if degree[w] == 1 and w not in leaves:
                    removable.append(w)
    return alive


def bough_counts(tree: TreeTopology, split: Bipartition) -> BoughProfile:
    """Class counts (n1, n2) of the chain relation on each side of ``split``.

    Two leaves on the same side are related when the path between them avoids
    the minimal subtree spanning the opposite side; n_i is the number of
    classes, computed as connected components of the tree minus that subtree.
    """
    if split.n_leaves != tree.n_leaves:
        raise ValueError("split does not match the tree's leaf set")
    side1, side2 = split.sides
    counts = []
    for own, other in ((side1, side2), (side2, side1)):
        blocked = _spanning_vertices(tree, other)
        remaining = set(tree.adjacency) - blocked
        seen: set[int] = set()
        n_classes = 0
        for v in sorted(remaining):
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for w in tree.adjacency[stack.pop()]:
                    if w in remaining and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            if comp & own:
                n_classes += 1
        counts.append(n_classes)
    return BoughProfile(counts[0], counts[1])


# ---------------------------------------------------------------------------
# Newick serialization.  Branch lengths are accepted on input and ignored;
# the unrooted tree is printed from the vertex where leaves 1, 2 and 3 meet.
# ---------------------------------------------------------------------------

def _median_of_first_three(tree: TreeTopology) -> int:
    """The interior vertex on the paths between leaves 1, 2 and 3."""
    parent = {1: 1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in tree.adjacency[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    on_path_to_2 = {1}
    v = 2
    while v != 1:
        on_path_to_2.add(v)
        v = parent[v]
    v = 3
    while v not in on_path_to_2:
        v = parent[v]
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
    must be trivalent.
    """
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    pos = 0
    next_internal = [0]
    leaf_names: list[str] = []
    edges: list[tuple[str, str]] = []

    def peek() -> str:
        if pos >= len(text):
            raise ValueError("newick input ends before its tree does")
        return text[pos]

    def parse() -> str:
        nonlocal pos
        if peek() == "(":
            pos += 1
            node = f"@{next_internal[0]}"
            next_internal[0] += 1
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
        return f"leaf:{name}"

    def _skip_decoration() -> None:
        # optional support value and/or :length after a node
        nonlocal pos
        while pos < len(text) and text[pos] not in ",()":
            pos += 1

    try:
        root = parse()
    except RecursionError:
        raise ValueError("newick input nested too deeply") from None
    if pos != len(text):
        raise ValueError(f"trailing characters in newick input: {text[pos:]!r}")
    if len(set(leaf_names)) != len(leaf_names):
        raise ValueError("duplicate taxon names")

    order = {name: i + 1 for i, name in enumerate(sorted(leaf_names))}
    n = len(leaf_names)
    ids: dict[str, int] = {}
    for node in {v for e in edges for v in e} | {root}:
        if node.startswith("leaf:"):
            ids[node] = order[node[5:]]
        else:
            ids[node] = n + 1 + int(node[1:])
    adjacency: dict[int, set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(ids[u], set()).add(ids[v])
        adjacency.setdefault(ids[v], set()).add(ids[u])

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
