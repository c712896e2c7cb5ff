"""Tree topology, split, and reconstruction tests.

Expected values marked as derived were computed with the independent oracles
at the top of this file (path enumeration, explicit chain relation, edge-subset
search, double factorial) and then frozen into the assertions.
"""

import itertools

import pytest

from edgeinv.trees import (
    Bipartition,
    SplitSystemError,
    TreeTopology,
    edge_splits,
    enumerate_trivalent_topologies,
    from_newick,
    min_edge_cut,
    splits_compatible,
    to_newick,
    tree_from_splits,
)


# ---------------------------------------------------------------------------
# Oracles, independent of the library internals
# ---------------------------------------------------------------------------

def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def path_vertices(tree: TreeTopology, a: int, b: int) -> list[int]:
    """Unique a-b path, found by BFS parent pointers."""
    parent = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def splits_by_path_crossing(tree: TreeTopology) -> set[Bipartition]:
    """Edge splits recovered purely from leaf-pair paths: leaf x sits on the
    u-side of edge (u, v) iff the x..v path passes through u."""
    out = set()
    for u, v in tree.edges:
        u_side = set()
        for leaf in range(1, tree.n_leaves + 1):
            path = path_vertices(tree, leaf, v)
            if u in path:
                u_side.add(leaf)
        out.add(Bipartition(u_side, tree.n_leaves))
    return out


def bough_counts_by_chains(tree: TreeTopology, split: Bipartition):
    """Class counts via the pairwise chain relation and union-find."""
    counts = []
    side1, side2 = split.sides
    for own, other in ((side1, side2), (side2, side1)):
        span = set()
        for a, b in itertools.combinations(sorted(other), 2):
            span.update(path_vertices(tree, a, b))
        span |= other
        own = sorted(own)
        parent = {x: x for x in own}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in itertools.combinations(own, 2):
            if not span.intersection(path_vertices(tree, a, b)):
                parent[find(a)] = find(b)
        counts.append(len({find(x) for x in own}))
    return tuple(counts)


def edge_cut_by_search(tree: TreeTopology, split: Bipartition) -> int:
    """Fewest edges whose removal disconnects the two sides, by trying every
    edge subset in order of size."""
    side1, side2 = split.sides
    for size in range(len(tree.edges) + 1):
        for cut in itertools.combinations(tree.edges, size):
            kept = set(tree.edges) - set(cut)
            reached, stack = set(side1), list(side1)
            while stack:
                v = stack.pop()
                for w in tree.adjacency[v]:
                    if tuple(sorted((v, w))) in kept and w not in reached:
                        reached.add(w)
                        stack.append(w)
            if reached.isdisjoint(side2):
                return size


# every STRIDE[n]-th topology is checked against the edge-subset search
STRIDE = {4: 1, 5: 3, 6: 17, 7: 151, 8: 2079}


def quartet(split_with_1: int) -> TreeTopology:
    """The quartet tree with leaf 1's cherry partner ``split_with_1``."""
    others = sorted({2, 3, 4} - {split_with_1})
    return TreeTopology(4, [(1, 5), (split_with_1, 5), (5, 6),
                            (others[0], 6), (others[1], 6)])


def caterpillar5() -> TreeTopology:
    # ((1,2),3,(4,5)): interiors 6-(1,2), 7-(3), 8-(4,5)
    return TreeTopology(5, [(1, 6), (2, 6), (6, 7), (3, 7), (7, 8),
                            (4, 8), (5, 8)])


def caterpillar6() -> TreeTopology:
    # cherries (1,2) and (5,6) at the ends of the interior path 7-8-9-10
    return TreeTopology(6, [(1, 7), (2, 7), (7, 8), (3, 8), (8, 9),
                            (4, 9), (9, 10), (5, 10), (6, 10)])


# ---------------------------------------------------------------------------
# Bipartition canonicalization
# ---------------------------------------------------------------------------

class TestBipartition:
    def test_complement_is_same_value(self):
        assert Bipartition({1, 2}, 4) == Bipartition({3, 4}, 4)

    def test_canonicalization_idempotent(self):
        b = Bipartition({3, 4}, 4)
        assert Bipartition(b.side, 4) == b

    def test_side_never_contains_leaf_one(self):
        for labels in ({1, 2}, {2, 3}, {1, 4}, {2}):
            assert 1 not in Bipartition(labels, 4).side

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Bipartition(set(), 4)
        with pytest.raises(ValueError):
            Bipartition({1, 2, 3, 4}, 4)
        with pytest.raises(ValueError):
            Bipartition({5}, 4)

    def test_str_and_parse_roundtrip(self):
        b = Bipartition({2, 4}, 5)
        assert str(b) == "1,3,5|2,4"
        assert Bipartition.parse(str(b), 5) == b
        assert Bipartition.parse("2,4|1,3,5", 5) == b


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_three_leaves_unique_star(self):
        trees = enumerate_trivalent_topologies(3)
        assert len(trees) == 1
        assert trees[0].interior_splits() == ()

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_counts_match_double_factorial(self, n):
        trees = enumerate_trivalent_topologies(n)
        assert len(trees) == double_factorial(2 * n - 5)
        # all distinct as topologies
        assert len({frozenset(t.interior_splits()) for t in trees}) == len(trees)

    def test_four_leaves_is_three(self):
        assert len(enumerate_trivalent_topologies(4)) == 3

    def test_six_leaves_is_105(self):
        assert len(enumerate_trivalent_topologies(6)) == 105

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            enumerate_trivalent_topologies(2)
        with pytest.raises(ValueError):
            enumerate_trivalent_topologies(11)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_edge_and_interior_edge_counts(self, n):
        for t in enumerate_trivalent_topologies(n):
            assert len(t.edges) == 2 * n - 3
            assert len(t.interior_splits()) == n - 3


# ---------------------------------------------------------------------------
# Edge splits
# ---------------------------------------------------------------------------

class TestEdgeSplits:
    def test_quartet_cherry_12(self):
        t = quartet(2)
        assert t.interior_splits() == (Bipartition({1, 2}, 4),)

    def test_caterpillar5_interior_splits(self):
        expected = {Bipartition({1, 2}, 5), Bipartition({4, 5}, 5)}
        assert set(caterpillar5().interior_splits()) == expected

    def test_star_has_no_interior_splits(self):
        (star,) = enumerate_trivalent_topologies(3)
        assert star.interior_splits() == ()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_path_crossing_oracle(self, n):
        for t in enumerate_trivalent_topologies(n)[::7]:
            assert set(edge_splits(t)) == splits_by_path_crossing(t)

    def test_trivial_splits_flagged(self):
        t = quartet(2)
        trivial = [s for s in edge_splits(t) if s.is_trivial]
        assert len(trivial) == 4


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------

class TestCompatibility:
    def test_two_splits_of_same_tree(self):
        a = Bipartition({1, 2}, 5)
        b = Bipartition({4, 5}, 5)
        assert splits_compatible(a, b)

    def test_crossing_quartet_splits(self):
        a = Bipartition({1, 2}, 4)
        b = Bipartition({1, 3}, 4)
        # oracle: all four intersections nonempty
        a1, a2 = a.sides
        b1, b2 = b.sides
        assert all((a1 & b1, a1 & b2, a2 & b1, a2 & b2))
        assert not splits_compatible(a, b)

    def test_self_compatible(self):
        a = Bipartition({2, 3}, 5)
        assert splits_compatible(a, a)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            splits_compatible(Bipartition({1, 2}, 4), Bipartition({1, 2}, 5))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_all_interior_split_pairs_of_a_tree_compatible(self, n):
        for t in enumerate_trivalent_topologies(n)[::11]:
            for a, b in itertools.combinations(t.interior_splits(), 2):
                assert splits_compatible(a, b)


# ---------------------------------------------------------------------------
# Reconstruction from splits
# ---------------------------------------------------------------------------

class TestTreeFromSplits:
    def test_single_split_quartet(self):
        t = tree_from_splits([Bipartition({1, 2}, 4)], 4)
        assert t == quartet(2)

    def test_caterpillar5_roundtrip(self):
        ref = caterpillar5()
        assert tree_from_splits(ref.interior_splits(), 5) == ref

    def test_incompatible_pair_reported(self):
        a, b = Bipartition({1, 2}, 5), Bipartition({1, 3}, 5)
        with pytest.raises(SplitSystemError) as err:
            tree_from_splits([a, b], 5)
        assert err.value.reason == "incompatible"
        assert set(err.value.pair) == {a, b}

    def test_wrong_cardinality_refused(self):
        with pytest.raises(SplitSystemError) as err:
            tree_from_splits([Bipartition({1, 2}, 5)], 5)
        assert err.value.reason == "cardinality"

    def test_trivial_split_refused(self):
        with pytest.raises(SplitSystemError):
            tree_from_splits([Bipartition({2}, 4)], 4)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_roundtrip_all_topologies(self, n):
        for t in enumerate_trivalent_topologies(n):
            assert tree_from_splits(t.interior_splits(), n) == t


# ---------------------------------------------------------------------------
# Fewest separating edges (the cut behind the rank ceiling).  Up to 7 leaves
# it equals the smaller bough count of the chain relation.
# ---------------------------------------------------------------------------

class TestBoughCounts:
    def test_quartet_edge_split(self):
        assert min_edge_cut(quartet(2), Bipartition({1, 2}, 4)) == 1

    def test_quartet_crossing_split(self):
        t = quartet(2)
        beta = Bipartition({1, 3}, 4)
        assert bough_counts_by_chains(t, beta) == (2, 2)
        assert min_edge_cut(t, beta) == 2

    def test_six_leaf_asymmetric_profile(self):
        t = caterpillar6()
        beta = Bipartition({1, 3, 4}, 6)
        assert bough_counts_by_chains(t, beta) == (3, 2)
        assert min_edge_cut(t, beta) == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_chain_oracle_everywhere(self, n):
        for t in enumerate_trivalent_topologies(n)[::13]:
            for r in range(1, n // 2 + 1):
                for side in itertools.combinations(range(2, n + 1), r):
                    beta = Bipartition(side, n)
                    assert min_edge_cut(t, beta) == \
                        min(bough_counts_by_chains(t, beta))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_edge_splits_have_profile_one_one(self, n):
        for t in enumerate_trivalent_topologies(n)[::17]:
            for s in t.interior_splits():
                assert min_edge_cut(t, s) == 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_non_splits_have_profile_at_least_two(self, n):
        for t in enumerate_trivalent_topologies(n)[::13]:
            own = set(t.interior_splits())
            for r in range(2, n // 2 + 1):
                for side in itertools.combinations(range(2, n + 1), r):
                    beta = Bipartition(side, n)
                    if beta in own or beta.is_trivial:
                        continue
                    assert min_edge_cut(t, beta) >= 2

    def test_profile_bounds(self):
        t = caterpillar6()
        for r in range(1, 4):
            for side in itertools.combinations(range(2, 7), r):
                beta = Bipartition(side, 6)
                s1, s2 = beta.sides
                assert 1 <= min_edge_cut(t, beta) <= min(len(s1), len(s2))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_edge_subset_search(self, n):
        for t in enumerate_trivalent_topologies(n)[::STRIDE[n]]:
            for r in range(1, n // 2 + 1):
                for side in itertools.combinations(range(2, n + 1), r):
                    beta = Bipartition(side, n)
                    assert min_edge_cut(t, beta) == edge_cut_by_search(t, beta)

    def test_eight_leaf_caterpillar_below_bough_counts(self):
        # derived: three edges (the pendant edges of 1 and 7 and the spine
        # edge between 4 and 5) separate the sides, while each side has
        # four chain classes
        t, _ = from_newick("(((((((1,2),3),4),5),6),7),8);")
        beta = Bipartition({1, 5, 6, 8}, 8)
        assert bough_counts_by_chains(t, beta) == (4, 4)
        assert min_edge_cut(t, beta) == edge_cut_by_search(t, beta) == 3


# ---------------------------------------------------------------------------
# Newick
# ---------------------------------------------------------------------------

class TestNewick:
    def test_roundtrip_plain_labels(self):
        for t in enumerate_trivalent_topologies(5):
            parsed, names = from_newick(to_newick(t))
            assert parsed == t
            assert names == {i: str(i) for i in range(1, 6)}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_string_depends_on_the_topology_only(self, n):
        for t in enumerate_trivalent_topologies(n):
            text = to_newick(t)
            assert to_newick(tree_from_splits(t.interior_splits(), n)) == text
            assert to_newick(from_newick(text)[0]) == text

    def test_printed_from_where_leaves_1_2_3_meet(self):
        tree, _ = from_newick("((((1,2),3),4),5,6);")
        assert to_newick(tree) == "(1,2,(3,(4,(5,6))));"

    def test_named_taxa_sorted_assignment(self):
        tree, names = from_newick("((human,chimp),gorilla,orang);")
        assert tree.n_leaves == 4
        assert sorted(names.values()) == ["chimp", "gorilla", "human", "orang"]
        assert names[1] == "chimp"

    def test_branch_lengths_ignored(self):
        a, _ = from_newick("((1:0.1,2:0.2):0.3,3:0.1,4:0.9);")
        assert a == quartet(2)

    def test_rooted_input_gets_unrooted(self):
        a, _ = from_newick("((1,2),(3,4));")
        assert a == quartet(2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            from_newick("((a,a),b,c);")

    @pytest.mark.parametrize("text", [
        "(a,b", "((a,b),(c,d);", ";", "",
        pytest.param("(" * 5000 + "a" + ")" * 5000 + ";", id="deep-nesting"),
    ])
    def test_truncated_or_empty_rejected(self, text):
        with pytest.raises(ValueError):
            from_newick(text)
