"""Split scoring, generator counting, minor evaluation, and model fit."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import edgeinv.groups
import edgeinv.scores
import edgeinv.tensors
from edgeinv.groups import EquivariantModel, builtin_model, \
    clifford_reduction, symmetry_adapted_basis
from edgeinv.reconstruct import reconstruct_exhaustive
from edgeinv.scores import (
    SplitTable,
    all_bipartitions,
    edge_invariant_test,
    evaluate_generators,
    fit_scores,
    generator_catalog,
    genericity_check,
    model_fit_score,
    score_splits,
    side_mask,
    split_report,
    split_score,
)
from edgeinv.simulate import joint_distribution, random_presentation
from edgeinv.tensors import STACK_ENTRIES, CharacterTransform, \
    PatternTensor, split_stacks
from edgeinv.trees import Bipartition, TreeTopology, from_newick
from helpers import averaged, enumerate_trivalent_topologies, \
    fit_score_oracle, group_average, no_mutation_presentation, \
    per_split_score, thin_flatten, thin_rank, transposition_group

MODELS = ["GMM", "SSM", "K81", "K80", "JC69"]

QUARTETS = enumerate_trivalent_topologies(4)


def quartet12() -> TreeTopology:
    return next(t for t in QUARTETS
                if Bipartition({1, 2}, 4) in t.interior_splits())


def simulated(model_name: str, seed: int, tree=None) -> PatternTensor:
    model = builtin_model(model_name)
    tree = tree or quartet12()
    return joint_distribution(random_presentation(model, tree, seed))


# ---------------------------------------------------------------------------
# Split scores
# ---------------------------------------------------------------------------

class TestSplitScore:
    @pytest.mark.parametrize("seed", range(10))
    def test_true_split_scores_zero(self, seed):
        psi = simulated("K81", seed)
        s = split_score(psi, Bipartition({1, 2}, 4), builtin_model("K81"))
        assert s.score <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_wrong_split_scores_large(self, seed):
        psi = simulated("K81", seed)
        s = split_score(psi, Bipartition({1, 3}, 4), builtin_model("K81"))
        assert s.score > 0.01

    def test_no_mutation_scores_zero_everywhere(self):
        psi = joint_distribution(no_mutation_presentation(quartet12()))
        for name in MODELS:
            model = builtin_model(name)
            for side in ({1, 2}, {1, 3}, {1, 4}):
                s = split_score(psi, Bipartition(side, 4), model)
                assert s.score <= 1e-12

    def test_trivial_split_scores_zero_by_construction(self):
        psi = simulated("GMM", 3)
        s = split_score(psi, Bipartition({2}, 4), builtin_model("GMM"))
        assert s.score == 0.0
        assert s.achieved is None

    @pytest.mark.parametrize("name", MODELS)
    def test_zero_residuals_iff_rank_bound_met(self, name):
        model = builtin_model(name)
        psi = simulated(name, 5)
        good = split_score(psi, Bipartition({1, 2}, 4), model)
        target = model.multiplicities(1).entries
        assert all(a <= m for a, m in zip(good.achieved.entries, target))

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_free(self, seed):
        psi = simulated("K80", seed)
        doubled = PatternTensor(psi.values * 2.0, psi.labels)
        model = builtin_model("K80")
        beta = Bipartition({1, 3}, 4)
        a = split_score(psi, beta, model).score
        b = split_score(doubled, beta, model).score
        assert a == pytest.approx(b, rel=1e-12)

    def test_relabel_invariance_fixing_the_split(self):
        # swapping 1<->2 and 3<->4 fixes the split 12|34
        from helpers import permute_labels
        psi = simulated("GMM", 9)
        swapped = permute_labels(psi, {1: 2, 2: 1, 3: 4, 4: 3})
        model = builtin_model("GMM")
        beta = Bipartition({1, 2}, 4)
        assert split_score(psi, beta, model).score == pytest.approx(
            split_score(swapped, beta, model).score, abs=1e-12)

    @pytest.mark.parametrize("name", MODELS)
    def test_soundness_on_seven_leaves(self, name):
        # every interior split of the generating topology scores ~0,
        # including the 2|5 and 3|4 shapes only larger trees exhibit
        model = builtin_model(name)
        tree = TreeTopology(7, [(1, 8), (2, 8), (8, 9), (3, 9), (9, 10),
                                (4, 10), (10, 11), (5, 11), (11, 12),
                                (6, 12), (7, 12)])
        psi = joint_distribution(random_presentation(model, tree, 3))
        for split in tree.interior_splits():
            assert split_score(psi, split, model).score <= 1e-9


# ---------------------------------------------------------------------------
# Edge-invariant topology tests
# ---------------------------------------------------------------------------

class TestScoreSplits:
    @pytest.mark.parametrize("name", MODELS)
    def test_table_matches_single_split_scores(self, name):
        model = builtin_model(name)
        rng = np.random.default_rng(4)
        psi = PatternTensor(rng.random(4 ** 5), tuple(range(1, 6)))
        splits = all_bipartitions(5)
        table = score_splits(psi, model, splits)
        assert list(table) == splits
        for split in splits:
            single = split_score(psi, split, model)
            assert table[split].score == single.score
            assert table[split].per_block_residuals == \
                single.per_block_residuals
            assert table[split].achieved == single.achieved

    def test_split_over_other_leaves_rejected(self):
        # the table is keyed by side mask, so a split of 1..6 would read as
        # another split of the 5-leaf tensor
        psi = PatternTensor(np.random.default_rng(4).random(4 ** 5),
                            tuple(range(1, 6)))
        with pytest.raises(ValueError, match="does not partition"):
            score_splits(psi, builtin_model("K81"), [Bipartition({2, 6}, 6)])

    @pytest.mark.parametrize("name", ["GMM", "SSM", "K81"])
    @pytest.mark.parametrize("pre_averaged", [False, True])
    def test_abelian_table_ranks_match_thin_flatten(self, name, pre_averaged):
        # the table scores the average whether or not it is handed one
        model = builtin_model(name)
        psi = PatternTensor(np.random.default_rng(5).random(4 ** 6),
                            tuple(range(1, 7)))
        splits = all_bipartitions(6, nontrivial_only=True)
        scored = averaged(psi, model)
        table = score_splits(scored if pre_averaged else psi, model, splits)
        for split in splits:
            want = thin_rank(thin_flatten(scored, split, model))
            assert table[split].achieved.entries == want.entries

    def test_abelian_table_flattens_nothing(self, monkeypatch):
        # K81 blocks come from one character transform of the tensor: no
        # adapted basis above power 1
        built = []
        original_build = edgeinv.groups._build_basis

        def counted_build(model, power):
            built.append(power)
            return original_build(model, power)

        monkeypatch.setattr(edgeinv.groups, "_build_basis", counted_build)
        edgeinv.groups.symmetry_adapted_basis.cache_clear()
        model = builtin_model("K81")
        psi = PatternTensor(np.random.default_rng(6).random(4 ** 8),
                            tuple(range(1, 9)))
        table = score_splits(psi, model, all_bipartitions(8, True))
        caterpillar = from_newick("(((((((1,2),3),4),5),6),7),8);")[0]
        audit = genericity_check(psi, model, caterpillar)
        assert len(table) == 119 and len(audit.entries) == 127
        assert built and max(built) == 1

    def test_klein_route_flattens_nothing(self, monkeypatch):
        # K80 and JC69 blocks come from K81's character transform of the
        # tensor: no adapted basis above power 1
        built = []
        original_build = edgeinv.groups._build_basis

        def counted_build(model, power):
            built.append(power)
            return original_build(model, power)

        monkeypatch.setattr(edgeinv.groups, "_build_basis", counted_build)
        edgeinv.groups.symmetry_adapted_basis.cache_clear()
        k80 = builtin_model("K80")
        psi = PatternTensor(np.random.default_rng(7).random(4 ** 8),
                            tuple(range(1, 9)))
        assert len(score_splits(psi, k80, all_bipartitions(8, True))) == 119
        jc69 = builtin_model("JC69")
        tree = from_newick("(((((1,2),3),4),5),6);")[0]
        exact = joint_distribution(random_presentation(jc69, tree, 1))
        result = reconstruct_exhaustive(exact, jc69)
        assert result.tree.interior_splits() == tree.interior_splits()
        assert result.genericity_warnings == ()
        assert max(built, default=1) == 1

    def test_table_takes_one_average(self, monkeypatch):
        # the average is the character transform's, made once per table
        calls = []
        original = CharacterTransform.__init__

        def counted(self, *args):
            calls.append(args)
            original(self, *args)

        monkeypatch.setattr(CharacterTransform, "__init__", counted)
        psi = PatternTensor(np.random.default_rng(9).random(4 ** 8),
                            tuple(range(1, 9)))
        table = score_splits(psi, builtin_model("K80"),
                             all_bipartitions(8, True))
        assert len(table) == 119 and len(calls) == 1

    def test_trivial_splits_take_no_average(self, monkeypatch):
        # they score 0 by construction, as a split table would not
        calls = []
        monkeypatch.setattr(CharacterTransform, "__init__",
                            lambda self, *args: calls.append(args))
        psi = PatternTensor(np.random.default_rng(9).random(4 ** 6),
                            tuple(range(1, 7)))
        scores = score_splits(psi, builtin_model("JC69"),
                              [Bipartition({2}, 6), Bipartition({3}, 6)])
        assert [s.score for s in scores.values()] == [0.0, 0.0]
        assert not calls

    @pytest.mark.parametrize("name", ["K81", "K80", "JC69"])
    def test_first_fill_holds_two_tensors(self, name):
        # the transform's two buffers; the kept class and its stabiliser
        # average are made after the spare one is dropped
        model = builtin_model(name)
        psi = PatternTensor(np.random.default_rng(2).random(4 ** 9),
                            tuple(range(1, 10)))
        masks = [0b11, 0b1111, 0b11110000]
        SplitTable(psi, model, masks)  # the model's tables are built once
        tracemalloc.start()
        try:
            SplitTable(psi, model, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * psi.values.nbytes

    @pytest.mark.parametrize("name,share", [("K81", 0.3), ("K80", 0.3),
                                            ("JC69", 0.3), ("SSM", 0.55)])
    @pytest.mark.parametrize("n", [8, 9])
    def test_built_table_holds_its_kept_class(self, name, share, n):
        # the class of label 0 of the transform: a quarter of the tensor's
        # entries, half for SSM.  It is made after the spare buffer is
        # dropped, at 8 and at 9 leaves
        model = builtin_model(name)
        psi = PatternTensor(np.random.default_rng(2).random(4 ** n),
                            tuple(range(1, n + 1)))
        masks = [0b11, 0b1111, 0b1110000]
        SplitTable(psi, model, masks)  # the model's tables are built once
        tracemalloc.start()
        try:
            table = SplitTable(psi, model, masks)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.scored) == len(masks)
        assert held <= share * psi.values.nbytes
        assert peak <= 2.2 * psi.values.nbytes

    @pytest.mark.parametrize("name", ["GMM", "K81", "JC69"])
    def test_caller_tensor_is_not_written(self, name):
        # an invariant input keeps its values, and its transform, for the
        # next table
        model = builtin_model(name)
        psi = averaged(PatternTensor(np.random.default_rng(4).random(4 ** 6),
                                     tuple(range(1, 7))), model)
        before = psi.values.copy()
        first = SplitTable(psi, model, [0b11]).scored
        assert np.array_equal(psi.values, before)
        assert not psi.values.flags.writeable
        assert SplitTable(psi, model, [0b11]).scored == first

    def test_table_takes_one_norm(self, monkeypatch):
        # the group average's, from the kept class of its transform
        model = builtin_model("JC69")
        psi = PatternTensor(np.random.default_rng(8).random(4 ** 6),
                            tuple(range(1, 7)))
        score_splits(psi, model, [Bipartition({2, 3}, 6)])  # model tables
        norms = []
        original = np.linalg.norm

        def counted(x, *args, **kwargs):
            norms.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        table = SplitTable(psi, model, map(side_mask,
                                           all_bipartitions(6, True)))
        assert len(table.scored) == 25
        assert norms == [table.transform.kept.shape]
        want = averaged(psi, model).norm()
        assert abs(table.norm - want) <= 1e-15 * want

    def test_edge_test_reads_the_table(self):
        model = builtin_model("K80")
        psi = simulated("K80", 2)
        table = score_splits(psi, model, all_bipartitions(4, True))
        report = edge_invariant_test(psi, quartet12(), model)
        assert report.scores == tuple(table[s] for s in
                                      quartet12().interior_splits())


@pytest.mark.parametrize("name", MODELS)
def test_renamed_model_gets_the_same_basis_and_scores(name):
    # nothing looks a model up by its name again
    model = builtin_model(name)
    copy = EquivariantModel(f"{name}-copy", model.elements, model.irreps)
    for power in range(1, 5):
        want = symmetry_adapted_basis(model, power)
        got = symmetry_adapted_basis(copy, power)
        assert got.tags == want.tags
        for a, b in zip(got.csc_arrays, want.csc_arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    tree, _ = from_newick("(((1,2),3),(4,(5,6)));")
    psi = simulated(name, 2, tree)
    splits = all_bipartitions(6, nontrivial_only=True)
    want = score_splits(psi, model, splits)
    for split, score in score_splits(psi, copy, splits).items():
        assert score.per_block_residuals == \
            want[split].per_block_residuals
        assert score.score == want[split].score
        assert score.achieved == want[split].achieved


def averaged_random(name: str, n: int, seed: int) -> PatternTensor:
    values = np.random.default_rng(seed).random(4 ** n)
    return averaged(PatternTensor(values, tuple(range(1, n + 1))),
                    builtin_model(name))


class TestStacks:
    """The split table scores its splits in stacks of equal side sizes; a
    split's score does not depend on the stack it was scored in."""

    @staticmethod
    def in_stacks_of(monkeypatch, size: int) -> None:
        # whole shape groups, cut into stacks of ``size``
        whole = edgeinv.tensors.split_stacks

        def stacks(splits, model):
            for group in whole(splits, model):
                yield from (group[i:i + size]
                            for i in range(0, len(group), size))

        monkeypatch.setattr(edgeinv.tensors, "STACK_ENTRIES", 4 ** 12)
        monkeypatch.setattr(edgeinv.scores, "split_stacks", stacks)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_stacking_scores_as_one_split_alone(self, monkeypatch,
                                                      name, n):
        model = builtin_model(name)
        psi = averaged_random(name, n, n)
        masks = [side_mask(split) for split in all_bipartitions(n)]
        largest = max(Counter(map(int.bit_count, masks)).values())
        sizes = range(1, largest + 1)
        if n == 8:  # every size takes 20 s for GMM
            sizes = (1, 2, 3, 4, 6, 11, largest)
        rng = np.random.default_rng(n)
        alone = {}
        for size in sizes:
            self.in_stacks_of(monkeypatch, size)
            table = SplitTable(psi, model, rng.permutation(masks).tolist())
            if size == 1:
                alone = table.scored
            # bit for bit: floats compare equal only when their bits agree
            # (no score is -0.0 or nan)
            assert table.scored == alone
        # against the independent per-split route, which averages the
        # whole tensor first: to rounding
        for mask, score in alone.items():
            if not score.split.is_trivial:
                want = per_split_score(psi, score.split, model)
                assert score.achieved == want.achieved
                for a, b in zip((score.score, *score.per_block_residuals),
                                (want.score, *want.per_block_residuals)):
                    assert abs(a - b) <= max(1e-12 * b, 1e-15)

    def test_one_gather_per_label_and_one_svd_per_irrep(self, monkeypatch):
        # each split of a stack takes one copy of the kept class, made
        # contiguous with side 1's axes first, and from it one take per
        # wanted label; each stack, one SVD call per irrep
        model = builtin_model("K80")
        psi = averaged_random("K80", 8, 3)
        splits = all_bipartitions(8)
        stacks = list(split_stacks(
            [s for s in splits if not s.is_trivial], model))
        reduction = clifford_reduction(model)
        copies = []

        class Takes(np.ndarray):
            calls = 0

            def take(self, *args, **kwargs):
                Takes.calls += 1
                return np.asarray(self).take(*args, **kwargs)

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def ascontiguousarray(array):
                copies.append(array.shape)
                return np.ascontiguousarray(array).view(Takes)

        monkeypatch.setattr(edgeinv.tensors, "np", Numpy())
        shapes = []
        svd = np.linalg.svd

        def counted(blocks, *args, **kwargs):
            shapes.append(blocks.shape)
            return svd(blocks, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        score_splits(psi, model, splits)
        assert sum(map(len, stacks)) == 119 and len(stacks) == 32
        assert len(copies) == 119
        assert Takes.calls == len(set(reduction.irrep_labels)) * 119
        assert len(shapes) == model.n_irreps * 32
        assert [shape[0] for shape in shapes[::model.n_irreps]] == \
            list(map(len, stacks))

    @pytest.mark.parametrize("name,width", [("K81", 1), ("K80", 2),
                                            ("JC69", 6)])
    def test_peak_memory_capped(self, name, width):
        # a stack scales every array of its blocks by its size: the stack
        # of each label wanted holds at most STACK_ENTRIES entries, and the
        # compression's gather ``width`` times that (the largest stabiliser
        # orbit of a label)
        model = builtin_model(name)
        psi = averaged_random(name, 8, 5)
        splits = all_bipartitions(8, nontrivial_only=True)

        def peak(score):
            score()
            tracemalloc.start()
            try:
                score()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak(lambda: [per_split_score(psi, s, model) for s in splits])
        stacked = peak(lambda: score_splits(psi, model, splits))
        assert stacked <= alone + (3 + width) * STACK_ENTRIES * 8

    @pytest.mark.parametrize("name", MODELS)
    def test_ten_leaf_stacks_hold_one_balanced_split(self, name):
        balanced = [s for s in all_bipartitions(10) if len(s.side) == 5]
        stacks = list(split_stacks(balanced, builtin_model(name)))
        assert len(stacks) == len(balanced) == 126


class TestEdgeInvariantTest:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_generating_topology_passes(self, name, seed):
        psi = simulated(name, seed)
        report = edge_invariant_test(psi, quartet12(), builtin_model(name),
                                     tol=1e-8)
        assert report.passed

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_wrong_topologies_fail_loudly(self, name, seed):
        psi = simulated(name, seed)
        for tree in QUARTETS:
            if tree == quartet12():
                continue
            report = edge_invariant_test(psi, tree, builtin_model(name),
                                         tol=1e-8)
            assert not report.passed
            assert report.max_score > 1e-5  # three orders above tol

    def test_no_mutation_passes_all_topologies(self):
        psi = joint_distribution(no_mutation_presentation(quartet12()))
        for name in MODELS:
            for tree in QUARTETS:
                assert edge_invariant_test(psi, tree, builtin_model(name),
                                           tol=1e-8).passed

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected_before_averaging(self, tol, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the tensor was averaged")

        psi = simulated("K81", 0)
        monkeypatch.setattr(CharacterTransform, "__init__", unreachable)
        with pytest.raises(ValueError, match=r"^tol must be finite and "
                                             r"non-negative, got "):
            edge_invariant_test(psi, quartet12(), builtin_model("K81"), tol)

    @pytest.mark.parametrize("newick", ["((1,2),(3,4));", "(1,2,3);"])
    def test_none_tol_rejected_before_averaging(self, newick, monkeypatch):
        # one tree's test has no data to drive a tolerance; the star tree,
        # with no interior split, once passed at None
        def unreachable(*args):
            raise AssertionError("the tensor was averaged")

        tree = from_newick(newick)[0]
        n = tree.n_leaves
        psi = PatternTensor(np.random.default_rng(n).random(4 ** n),
                            tuple(range(1, n + 1)))
        monkeypatch.setattr(CharacterTransform, "__init__", unreachable)
        with pytest.raises(ValueError, match=r"^tol must be finite and "
                                             r"non-negative, got None$"):
            edge_invariant_test(psi, tree, builtin_model("K81"), None)


class TestDecisionQueries:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", range(4, 8))
    def test_queries_answer_from_full_scores(self, name, n):
        # trivial splits all score 0, so ``ranked`` breaks ties by mask
        model = builtin_model(name)
        raw = PatternTensor(np.random.default_rng(n).random(4 ** n),
                            tuple(range(1, n + 1)))
        masks = [side_mask(split) for split in all_bipartitions(n)]
        for psi in (raw, averaged(raw, model)):
            table = SplitTable(psi, model)
            order = list(table.ranked(masks + masks[::-1]))
            assert order == sorted(masks, key=lambda m: (table[m].score, m))
            scores = [table[mask].score for mask in masks]
            for tol in set(scores):
                assert table.passes(masks, tol) == [s <= tol for s in scores]
            fresh = SplitTable(psi, model)
            assert fresh.passes(masks, 0.0) == [s <= 0.0 for s in scores]


# ---------------------------------------------------------------------------
# Genericity audit
# ---------------------------------------------------------------------------

class TestGenericity:
    @pytest.mark.parametrize("name", MODELS)
    def test_generic_simulation_achieves_ceilings(self, name):
        psi = simulated(name, 21)
        report = genericity_check(psi, builtin_model(name), quartet12())
        assert report.generic
        assert len(report.entries) == len(all_bipartitions(4))

    def test_no_mutation_is_flagged(self):
        psi = joint_distribution(no_mutation_presentation(quartet12()))
        report = genericity_check(psi, builtin_model("GMM"), quartet12())
        flagged_splits = {e.split for e in report.flagged}
        assert Bipartition({1, 3}, 4) in flagged_splits
        assert Bipartition({1, 4}, 4) in flagged_splits

    def test_zero_tensor_flagged_everywhere(self):
        psi = PatternTensor(np.zeros(256), (1, 2, 3, 4))
        report = genericity_check(psi, builtin_model("K81"), quartet12())
        assert len(report.flagged) == len(report.entries)
        assert report.warnings()


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------

class TestGeneratorCatalog:
    def test_k81_counts(self):
        cat = generator_catalog(builtin_model("K81"), 2, 2)
        assert cat.total == 144
        assert cat.degree_set == {2}

    def test_k80_counts(self):
        cat = generator_catalog(builtin_model("K80"), 2, 2)
        assert cat.total == 56
        assert cat.count_for_degree(2) == 54
        assert cat.count_for_degree(1) == 2
        assert cat.degree_set == {1, 2}

    def test_jc69_counts(self):
        cat = generator_catalog(builtin_model("JC69"), 2, 2)
        assert cat.total == 12
        assert cat.count_for_degree(2) == 10
        assert cat.count_for_degree(1) == 2
        # the linear constraints are the 1x1 blocks of the 2-dim irrep and
        # the sign-twisted 3-dim irrep
        linear = [b.irrep for b in cat.blocks if b.degree == 1 and b.count]
        assert linear == [2, 4]

    def test_ssm_counts(self):
        cat = generator_catalog(builtin_model("SSM"), 2, 2)
        assert cat.total == 6272
        assert cat.degree_set == {3}

    def test_gmm_counts(self):
        from math import comb
        cat = generator_catalog(builtin_model("GMM"), 2, 2)
        assert cat.total == comb(16, 5) ** 2
        assert cat.degree_set == {5}

    def test_degree_sets_catalogued(self):
        expected = {"GMM": {5}, "SSM": {3}, "K81": {2},
                    "K80": {1, 2}, "JC69": {1, 2}}
        for name, degrees in expected.items():
            assert generator_catalog(builtin_model(name), 2, 2).degree_set \
                == degrees

    def test_degrees_do_not_depend_on_powers(self):
        for name in MODELS:
            base = generator_catalog(builtin_model(name), 2, 2).degree_set
            assert generator_catalog(builtin_model(name), 2, 3).degree_set \
                == base
            assert generator_catalog(builtin_model(name), 3, 3).degree_set \
                == base


# ---------------------------------------------------------------------------
# Exact minor evaluation
# ---------------------------------------------------------------------------

class TestEvaluateGenerators:
    def test_true_split_all_minors_vanish(self):
        psi = simulated("K81", 2)
        result = evaluate_generators(psi, Bipartition({1, 2}, 4),
                                     builtin_model("K81"), budget=144)
        assert result.exhausted
        assert result.evaluated == 144
        assert result.max_abs_minor <= 1e-10

    def test_wrong_split_witnessed(self):
        psi = simulated("K81", 2)
        result = evaluate_generators(psi, Bipartition({1, 3}, 4),
                                     builtin_model("K81"), budget=144)
        assert result.max_abs_minor > 1e-4

    def test_zero_tensor(self):
        psi = PatternTensor(np.zeros(256), (1, 2, 3, 4))
        result = evaluate_generators(psi, Bipartition({1, 2}, 4),
                                     builtin_model("K81"), budget=144)
        assert result.max_abs_minor == 0.0

    def test_budget_respected(self):
        psi = simulated("K81", 4)
        result = evaluate_generators(psi, Bipartition({1, 3}, 4),
                                     builtin_model("K81"), budget=10)
        assert result.evaluated == 10
        assert not result.exhausted

    def test_budgeted_runs_deterministic(self):
        psi = simulated("GMM", 4)
        a = evaluate_generators(psi, Bipartition({1, 3}, 4),
                                builtin_model("GMM"), budget=500)
        b = evaluate_generators(psi, Bipartition({1, 3}, 4),
                                builtin_model("GMM"), budget=500)
        assert a == b

    @pytest.mark.parametrize("name,budget", [("SSM", 6272), ("K81", 144),
                                             ("K80", 56), ("JC69", 12)])
    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_and_minor_tests_agree(self, name, budget, seed):
        model = builtin_model(name)
        psi = simulated(name, seed)
        for side in ({1, 2}, {1, 3}, {1, 4}):
            beta = Bipartition(side, 4)
            spectral = split_score(psi, beta, model).score <= 1e-8
            minor = evaluate_generators(psi, beta, model,
                                        budget=budget).max_abs_minor <= 1e-7
            assert spectral == minor


# ---------------------------------------------------------------------------
# Model fit
# ---------------------------------------------------------------------------

class TestModelFit:
    def test_invariant_tensor_scores_zero(self):
        model = builtin_model("JC69")
        rng = np.random.default_rng(0)
        psi = averaged(PatternTensor(rng.random(256), (1, 2, 3, 4)), model)
        assert model_fit_score(psi, model) <= 1e-12

    def test_simulated_scores_zero_against_own_model(self):
        psi = simulated("JC69", 6)
        assert model_fit_score(psi, builtin_model("JC69")) <= 1e-12
        assert model_fit_score(psi, builtin_model("GMM")) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_generic_tensor_rejected_by_smaller_model(self, seed):
        psi = simulated("GMM", seed)
        assert model_fit_score(psi, builtin_model("JC69")) > 0.01

    @pytest.mark.parametrize("seed", range(10))
    def test_nesting_monotone(self, seed):
        rng = np.random.default_rng(seed)
        psi = PatternTensor(rng.random(256), (1, 2, 3, 4))
        chain = [model_fit_score(psi, builtin_model(name))
                 for name in ("JC69", "K80", "K81", "GMM")]
        assert all(a >= b - 1e-15 for a, b in zip(chain, chain[1:]))
        assert chain[-1] == 0.0

    def test_zero_tensor_rejected(self):
        # on the orbit walk (at 9 leaves, several orbits), an average of the
        # model's included, and on the path that skips it, the trivial group
        for name in MODELS:
            model = builtin_model(name)
            for n in (4, 9):
                psi = PatternTensor(np.zeros(4 ** n), tuple(range(1, n + 1)))
                for tensor in (psi, averaged(psi, model)):
                    with pytest.raises(ValueError, match="zero tensor"):
                        model_fit_score(tensor, model)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_the_difference_oracle(self, name, n):
        # the difference taken one orbit of blocks at a time, which from 9
        # leaves on is several orbits of several blocks for every model;
        # exactly 0.0 for the trivial group, and rounding for an average
        # of this model
        model = builtin_model(name)
        psi = PatternTensor(np.random.default_rng(n).random(4 ** n),
                            tuple(range(1, n + 1)))
        got, want = model_fit_score(psi, model), fit_score_oracle(psi, model)
        assert abs(got - want) <= 1e-15 * want
        assert (got == 0.0) == (want == 0.0) == (name == "GMM")
        avg = averaged(psi, model)
        assert model_fit_score(avg, model) <= 1e-15
        assert fit_score_oracle(avg, model) <= 1e-15

    @pytest.mark.parametrize("name", MODELS)
    def test_holds_one_tensor_beyond_its_input(self, name):
        # |G| blocks of at most 1 MiB, a block-sized row per factor element
        # and one block-sized buffer besides, whatever the leaf count (K80's
        # blocks of 4^7 patterns make its rows and buffer 0.5 MiB); only the
        # orbit tables grow with n, by a few ints per block
        model = builtin_model(name)
        peaks = []
        for n in (9, 10):
            psi = PatternTensor(np.random.default_rng(3).random(4 ** n),
                                tuple(range(1, n + 1)))
            model_fit_score(psi, model)  # the model's tables are built once
            tracemalloc.start()
            try:
                model_fit_score(psi, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 1.55 if name == "K80" else 1.2
        assert max(peaks) <= bound * 2 ** 20
        assert peaks[1] - peaks[0] <= psi.values.nbytes / 256


def caterpillar(n: int) -> TreeTopology:
    newick = "(1,2)"
    for leaf in range(3, n + 1):
        newick = f"({newick},{leaf})"
    return from_newick(newick + ";")[0]


def chain_input(n: int, kind: str, name: str) -> PatternTensor:
    """A random tensor, an integer tensor invariant under model ``name``
    (its group sum of random integers, so every average of it under a
    subgroup is exact), or that model's tensor on an n-leaf caterpillar."""
    rng = np.random.default_rng([n, MODELS.index(name)])
    labels = tuple(range(1, n + 1))
    if kind == "random":
        return PatternTensor(rng.random(4 ** n), labels)
    model = builtin_model(name)
    if kind == "integer":
        ints = rng.integers(0, 1000, size=4 ** n).astype(float)
        return PatternTensor(np.rint(group_average(ints, model, n)
                                     * model.order), labels)
    return joint_distribution(random_presentation(model, caterpillar(n), n))


class TestChainedFit:
    """``fit_scores`` walks the orbits of the largest requested group once
    and reads each smaller group's fit at its stage of the walk."""

    @pytest.mark.parametrize("n, kind, name", [
        (n, kind, name) for n in (0, 3, 8, 9)
        for kind, names in (("random", ["GMM"]), ("integer", MODELS),
                            ("tree", MODELS if n >= 3 else []))
        for name in names])
    def test_every_subset_scores_as_each_model_alone(self, n, kind, name):
        # every subset, shuffled, with a duplicate and names in mixed case;
        # within 1e-12 relative of the oracle and of the one-model walk
        # (1e-16 absolute at exact fits), and exactly 0 where both are
        psi = chain_input(n, kind, name)
        alone = {m: model_fit_score(psi, builtin_model(m)) for m in MODELS}
        oracle = {m: fit_score_oracle(psi, builtin_model(m)) for m in MODELS}
        rng = np.random.default_rng(n)
        for size in range(1, 6):
            for subset in itertools.combinations(MODELS, size):
                names = [*subset, subset[rng.integers(size)]]
                rng.shuffle(names)
                names = [m.lower() if rng.random() < 0.5 else m
                         for m in names]
                got = fit_scores(psi, [builtin_model(m) for m in names])
                for m, score in zip(names, got):
                    for want in (alone[m.upper()], oracle[m.upper()]):
                        if want <= 1e-12:
                            assert abs(score - want) <= 1e-16
                        else:
                            assert abs(score - want) <= 1e-12 * want
                        assert (score == 0.0) == (want == 0.0)
                    if m.upper() == "GMM":
                        assert score == 0.0

    def test_models_that_do_not_nest_rejected(self):
        psi = chain_input(3, "random", "GMM")
        with pytest.raises(ValueError, match="do not nest"):
            fit_scores(psi, [builtin_model("K81"), transposition_group()])

    @pytest.mark.parametrize("n", [0, 3, 8, 9])
    def test_zero_tensor_rejected_for_every_subset(self, n):
        psi = PatternTensor(np.zeros(4 ** n), tuple(range(1, n + 1)))
        for size in range(1, 6):
            for subset in itertools.combinations(MODELS, size):
                with pytest.raises(ValueError, match="zero tensor"):
                    fit_scores(psi, [builtin_model(m) for m in subset])

    @pytest.mark.parametrize("names, bound", [
        (("JC69", "K80", "K81", "SSM", "GMM"), 1.2),
        (("K81", "JC69"), 1.2),
        (("SSM", "K81", "K80"), 1.55)])
    def test_holds_one_tensor_beyond_its_input(self, names, bound):
        # the largest group's walk, with one more block-sized buffer where
        # a later factor has order 3: test_holds_one_tensor_beyond_its_input
        # of TestModelFit bounds the walk of that group alone.  With n grow
        # the orbit tables, a few ints per block, and each group's gaps, a
        # float per block in an array; the five gaps per block are the most
        # any chain holds, so that chain also runs at 11 leaves
        models = [builtin_model(m) for m in names]
        leaves, peaks = (9, 10, 11) if len(models) == 5 else (9, 10), []
        for n in leaves:
            psi = PatternTensor(np.random.default_rng(3).random(4 ** n),
                                tuple(range(1, n + 1)))
            fit_scores(psi, models)  # the chain's tables are built once
            tracemalloc.start()
            try:
                fit_scores(psi, models)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound * 2 ** 20
        for n, low, high in zip(leaves[1:], peaks, peaks[1:]):
            assert high - low <= 8 * 4 ** n / 128  # n leaves' nbytes / 128


# ---------------------------------------------------------------------------
# Report schema
# ---------------------------------------------------------------------------

class TestReport:
    def test_schema_fields(self):
        model = builtin_model("K81")
        psi = simulated("K81", 1)
        scores = [split_score(psi, b, model)
                  for b in all_bipartitions(4, nontrivial_only=True)]
        doc = split_report(model, 4, scores, warnings=["w"])
        assert set(doc) == {"model", "n", "bipartitions", "warnings"}
        assert len(doc["bipartitions"]) == 3
        record = doc["bipartitions"][0]
        assert set(record) == {"split", "per_block_residuals", "score",
                               "expected_rank", "achieved_rank"}
        import json
        json.dumps(doc)
