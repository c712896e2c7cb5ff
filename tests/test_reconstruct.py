"""Reconstruction pipeline tests: exhaustive decision, split selection,
empirical tensors, and diagnostic behavior on degenerate inputs."""

from types import SimpleNamespace

import numpy as np
import pytest

import edgeinv.reconstruct
import edgeinv.scores
import helpers
from edgeinv.groups import CliffordReduction, EquivariantModel, \
    builtin_model
from edgeinv.reconstruct import (
    WARN_ABOVE_TOL,
    WARN_NO_UNIQUE_PASS,
    WARN_RANK_NOT_GENERIC,
    WARN_TIE,
    data_driven_tol,
    empirical_tensor,
    reconstruct_by_splits,
    reconstruct_exhaustive,
)
from edgeinv.scores import all_bipartitions, score_splits, side_mask, \
    split_score
from edgeinv.simulate import (
    joint_distribution,
    random_presentation,
    read_fasta,
    sample_alignment,
    write_fasta,
)
from edgeinv.tensors import PatternTensor
from edgeinv.trees import (
    Bipartition,
    TreeTopology,
    from_newick,
    to_newick,
    tree_from_splits,
)
from helpers import alignment_from_counts, enumerate_trivalent_topologies, \
    greedy_splits_tree, no_mutation_presentation, permute_labels, \
    rescored_table, scan_exhaustive

MODELS = ["GMM", "SSM", "K81", "K80", "JC69"]


def quartet(partner: int) -> TreeTopology:
    others = sorted({2, 3, 4} - {partner})
    return TreeTopology(4, [(1, 5), (partner, 5), (5, 6),
                            (others[0], 6), (others[1], 6)])


def caterpillar6() -> TreeTopology:
    return TreeTopology(6, [(1, 7), (2, 7), (7, 8), (3, 8), (8, 9),
                            (4, 9), (9, 10), (5, 10), (6, 10)])


def random_tree(n: int, seed: int) -> TreeTopology:
    """A random trivalent tree on leaves 1..n (n <= 9), by joining random
    pairs of subtrees until three are left."""
    rng = np.random.default_rng(seed)
    parts = [str(leaf) for leaf in range(1, n + 1)]
    while len(parts) > 3:
        i, j = sorted(rng.choice(len(parts), 2, replace=False))
        parts.append(f"({parts.pop(j)},{parts.pop(i)})")
    return from_newick(f"({','.join(parts)});")[0]


def relabeled_tree(tree: TreeTopology, mapping: dict[int, int]) -> TreeTopology:
    n = tree.n_leaves
    splits = [Bipartition({mapping.get(x, x) for x in s.side}, n)
              for s in tree.interior_splits()]
    return tree_from_splits(splits, n)


# ---------------------------------------------------------------------------
# Exhaustive scan
# ---------------------------------------------------------------------------

class TestExhaustive:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_tensor_unique_pass(self, name, seed):
        model = builtin_model(name)
        psi = joint_distribution(random_presentation(model, quartet(2), seed))
        result = reconstruct_exhaustive(psi, model)
        assert result.tree == quartet(2)
        assert result.confident
        assert result.passers == 1

    @pytest.mark.parametrize("partner", [2, 3, 4])
    def test_every_quartet_topology_recoverable(self, partner):
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, quartet(partner),
                                                     123))
        assert reconstruct_exhaustive(psi, model).tree == quartet(partner)

    def test_no_mutation_passes_everything(self):
        psi = joint_distribution(no_mutation_presentation(quartet(2)))
        result = reconstruct_exhaustive(psi, builtin_model("K81"))
        assert result.passers == 3
        assert WARN_NO_UNIQUE_PASS in result.warnings
        assert WARN_TIE in result.warnings
        assert not result.confident

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_alignment_recovers_by_min_score(self, seed):
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, quartet(2), seed))
        aln = sample_alignment(psi, 10 ** 5, seed=seed + 1000)
        emp = empirical_tensor(aln)
        result = reconstruct_exhaustive(emp, model, tol=None)
        assert result.tree == quartet(2)

    def test_five_leaf_exact(self):
        model = builtin_model("JC69")
        tree = enumerate_trivalent_topologies(5)[7]
        psi = joint_distribution(random_presentation(model, tree, 5))
        assert reconstruct_exhaustive(psi, model).tree == tree

    @pytest.mark.parametrize("tol", [0.0, None, 1e-8])
    def test_decisions_use_the_reported_tol(self, tol):
        model = builtin_model("K81")
        tree = enumerate_trivalent_topologies(5)[7]
        psi = joint_distribution(random_presentation(model, tree, 5))
        scores = {s: split_score(psi, s, model).score
                  for s in all_bipartitions(5, nontrivial_only=True)}
        result = reconstruct_exhaustive(psi, model, tol=tol)
        assert result.passers == sum(
            all(scores[s] <= result.tol for s in t.interior_splits())
            for t in enumerate_trivalent_topologies(5))

    @pytest.mark.parametrize("method", [reconstruct_exhaustive,
                                        reconstruct_by_splits])
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"),
                                     float("inf")])
    def test_negative_or_nonfinite_tol_rejected(self, method, tol):
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, quartet(2), 1))
        with pytest.raises(ValueError):
            method(psi, model, tol=tol)

    def test_each_split_flattened_once(self, monkeypatch):
        flattened = []
        original = edgeinv.scores.character_flattening

        def counted(psi, splits, model):
            flattened.extend(splits)
            return original(psi, splits, model)

        monkeypatch.setattr(edgeinv.scores, "character_flattening", counted)
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, caterpillar6(), 3))
        assert reconstruct_exhaustive(psi, model).tree == caterpillar6()
        # 25 nontrivial splits scored once for 105 topologies, plus the
        # genericity audit's one flattening for each of the 31 bipartitions
        assert len(flattened) <= 25 + 31

    def test_audit_reads_the_split_table(self, monkeypatch):
        flattened = []
        original = edgeinv.scores.character_flattening

        def counted(psi, splits, model):
            flattened.extend(splits)
            return original(psi, splits, model)

        monkeypatch.setattr(edgeinv.scores, "character_flattening", counted)
        model = builtin_model("JC69")
        psi = joint_distribution(random_presentation(model, caterpillar6(), 3))
        assert reconstruct_exhaustive(psi, model).tree == caterpillar6()
        # 25 nontrivial splits scored once; the genericity audit flattens
        # only the 6 trivial ones and reads the rest from the split table
        assert len(flattened) <= 25 + 6

    def test_genericity_audit_flags_no_mutation(self):
        psi = joint_distribution(no_mutation_presentation(quartet(2)))
        result = reconstruct_exhaustive(psi, builtin_model("GMM"))
        assert result.genericity_warnings

    @pytest.mark.parametrize("route", [reconstruct_exhaustive,
                                       reconstruct_by_splits])
    def test_flagged_audit_leads_with_its_reason_code(self, route):
        model = builtin_model("GMM")
        psi = joint_distribution(no_mutation_presentation(quartet(2)))
        result = route(psi, model, check_genericity=True)
        code, *lines = result.genericity_warnings
        assert code == WARN_RANK_NOT_GENERIC
        assert lines and all(line.startswith("rank not generic at ")
                             for line in lines)
        report = result.to_report(model, psi.n)["warnings"]
        assert report.count(WARN_RANK_NOT_GENERIC) == 1
        assert report[report.index(WARN_RANK_NOT_GENERIC) + 1:] == lines

    @pytest.mark.parametrize("route", [reconstruct_exhaustive,
                                       reconstruct_by_splits])
    def test_generic_input_has_no_reason_code(self, route):
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, caterpillar6(), 3))
        result = route(psi, model, check_genericity=True)
        assert result.genericity_warnings == ()
        assert WARN_RANK_NOT_GENERIC not in result.to_report(
            model, psi.n)["warnings"]

    def test_unique_passer_beats_a_lower_failing_total(self, monkeypatch):
        model = builtin_model("K81")
        passer, _ = from_newick("((1,4),(2,5),3);")
        psi = joint_distribution(random_presentation(model, passer, 5))
        # the passer's two splits score 0.9 (total 1.8, both <= tol 1); the
        # tree ((1,5),(2,4),3) totals 1.5 but fails on its 1,5|2,3,4 split
        scores = dict.fromkeys(all_bipartitions(5, True), 2.0)
        scores.update(dict.fromkeys(passer.interior_splits(), 0.9))
        scores[Bipartition({2, 4}, 5)] = 0.0
        scores[Bipartition({2, 3, 4}, 5)] = 1.5
        table = rescored_table(psi, model, scores)
        monkeypatch.setattr(edgeinv.reconstruct, "SplitTable",
                            lambda *args, **kwargs: table)
        result = reconstruct_exhaustive(psi, model, tol=1.0,
                                        check_genericity=False)
        assert result.passers == 1
        assert result.tree == passer
        assert result.confident

    def test_unique_passer_skips_the_least_total_pass(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the least-total pass ran")

        monkeypatch.setattr(edgeinv.reconstruct, "_least_total", unreachable)
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, caterpillar6(), 3))
        result = reconstruct_exhaustive(psi, model)
        assert result.passers == 1
        assert result.tree == caterpillar6()
        assert result.confident

    def test_audited_solve_builds_first_copy_rows_once(self, monkeypatch):
        # a copy of the model has no first-copy rows yet; the audit's
        # trivial splits are in the first fill, so the rows are built once,
        # at the power of a side of five leaves
        jc69 = builtin_model("JC69")
        model = EquivariantModel("JC69-copy", jc69.elements, jc69.irreps)
        psi = joint_distribution(random_presentation(jc69, caterpillar6(), 3))
        powers = []
        original = CliffordReduction._stabiliser_rows

        def counted(reduction, power):
            powers.append(power)
            return original(reduction, power)

        monkeypatch.setattr(CliffordReduction, "_stabiliser_rows", counted)
        result = reconstruct_exhaustive(psi, model)
        assert result.tree == caterpillar6()
        assert result.genericity_warnings == ()
        assert powers == [5]

    def test_leaf_guard(self):
        psi = PatternTensor(np.zeros(4 ** 2), (1, 2))
        with pytest.raises(ValueError):
            reconstruct_exhaustive(psi, builtin_model("GMM"))
        # no PatternTensor holds 13 positions (the dense cap is 12), so a
        # stand-in that carries only the leaf count reaches the guard
        with pytest.raises(ValueError, match=r"3\.\.12 leaves"):
            reconstruct_exhaustive(SimpleNamespace(n=13), builtin_model("GMM"))

    def test_nine_leaf_caterpillar(self):
        model = builtin_model("K81")
        tree = from_newick("((((((((1,2),3),4),5),6),7),8),9);")[0]
        psi = joint_distribution(random_presentation(model, tree, 9))
        result = reconstruct_exhaustive(psi, model)
        assert result.tree == tree
        assert result.confident
        assert result.passers == 1
        assert result.genericity_warnings == ()
        assert reconstruct_by_splits(psi, model).tree == result.tree

    @pytest.mark.parametrize("name", ["GMM", "K81", "JC69"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_eight_leaf_caterpillar_is_generic(self, name, seed):
        # three edges separate 1,5,6,8|2,3,4,7 here, so its ceiling is m(3)
        # although each side has four chain classes
        model = builtin_model(name)
        tree = from_newick("(((((((1,2),3),4),5),6),7),8);")[0]
        psi = joint_distribution(random_presentation(model, tree, seed))
        result = reconstruct_exhaustive(psi, model)
        assert result.tree == tree
        assert result.genericity_warnings == ()

    @pytest.mark.parametrize("seed", range(2))
    def test_relabel_equivariance(self, seed):
        model = builtin_model("K80")
        psi = joint_distribution(random_presentation(model, quartet(2), seed))
        mapping = {1: 3, 3: 1, 2: 4, 4: 2}
        moved = permute_labels(psi, mapping)
        direct = reconstruct_exhaustive(moved, model).tree
        relabeled = relabeled_tree(reconstruct_exhaustive(psi, model).tree,
                                   mapping)
        assert direct == relabeled


class TestAgainstTheScan:
    """The dynamic program decides as the scan over every enumerated
    topology does."""

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", range(3, 8))
    def test_same_decision_and_report(self, n, name):
        model = builtin_model(name)
        topologies = enumerate_trivalent_topologies(n)
        tree = topologies[(7 * n) % len(topologies)]
        psi = joint_distribution(random_presentation(model, tree, n))
        sampled = empirical_tensor(sample_alignment(psi, 3000, seed=n))
        for tensor in (psi, sampled):
            for tol in (None, 0.0, 1e-8):
                result = reconstruct_exhaustive(tensor, model, tol=tol)
                reference, _ = scan_exhaustive(tensor, model, tol=tol)
                assert result.tree == reference.tree
                assert result.passers == reference.passers
                assert result.tol == reference.tol
                assert result.warnings == reference.warnings
                assert (result.to_report(model, n)
                        == reference.to_report(model, n))

    @pytest.mark.parametrize("n", range(4, 7))
    def test_integer_scores_tie_often(self, n, monkeypatch):
        # sums of scores in {0, 1, 2} are exact, so exact ties are common,
        # also between trees that share their top split
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(
            model, enumerate_trivalent_topologies(n)[0], n))
        rng = np.random.default_rng(n)
        for _ in range(10):
            scores = {split: float(rng.integers(3))
                      for split in all_bipartitions(n, True)}
            table = rescored_table(psi, model, scores)
            by_split = {split: table[side_mask(split)] for split in scores}
            monkeypatch.setattr(edgeinv.reconstruct, "SplitTable",
                                lambda *args, **kwargs: table)
            monkeypatch.setattr(helpers, "score_splits",
                                lambda *args, **kwargs: by_split)
            for tol in (None, 0.0, 1.0):
                result = reconstruct_exhaustive(psi, model, tol=tol,
                                                check_genericity=False)
                reference, tied = scan_exhaustive(psi, model, tol=tol,
                                                  check_genericity=False)
                assert result.passers == reference.passers
                assert result.tol == reference.tol
                assert result.warnings == reference.warnings
                if result.passers == 1:
                    assert result.tree == reference.tree
                else:
                    assert result.tree in tied

    @pytest.mark.parametrize("n", [4, 6])
    def test_exact_tie_goes_to_a_tied_tree(self, n):
        model = builtin_model("K81")
        tree = enumerate_trivalent_topologies(n)[-1]
        psi = joint_distribution(no_mutation_presentation(tree))
        result = reconstruct_exhaustive(psi, model)
        reference, tied = scan_exhaustive(psi, model)
        assert WARN_TIE in result.warnings
        assert result.warnings == reference.warnings
        assert result.tree in tied
        assert reconstruct_exhaustive(psi, model).tree == result.tree


# ---------------------------------------------------------------------------
# Split selection
# ---------------------------------------------------------------------------

class TestBySplits:
    def test_six_leaf_gmm_exact(self):
        model = builtin_model("GMM")
        tree = caterpillar6()
        psi = joint_distribution(random_presentation(model, tree, 77))
        result = reconstruct_by_splits(psi, model)
        assert result.tree == tree
        assert len(result.chosen_splits) == 3
        assert all(s.score <= 1e-8 for s in result.chosen_splits)
        assert not result.warnings

    @pytest.mark.parametrize("name", MODELS)
    def test_agrees_with_exhaustive_on_exact_data(self, name):
        model = builtin_model(name)
        for n, seeds in ((4, 10), (5, 10), (6, 3)):
            topologies = enumerate_trivalent_topologies(n)
            for seed in range(seeds):
                tree = topologies[(seed * 7) % len(topologies)]
                psi = joint_distribution(random_presentation(model, tree,
                                                             seed + 10 * n))
                by_splits = reconstruct_by_splits(psi, model)
                exhaustive = reconstruct_exhaustive(psi, model,
                                                    check_genericity=False)
                assert by_splits.tree == tree
                assert exhaustive.tree == tree

    def test_quartet_reduces_to_argmin(self):
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, quartet(3), 9))
        result = reconstruct_by_splits(psi, model)
        assert result.tree == quartet(3)
        assert len(result.chosen_splits) == 1
        assert result.chosen_splits[0].split == Bipartition({1, 3}, 4)

    def test_adversarial_mixture_not_silent(self):
        model = builtin_model("GMM")
        a = joint_distribution(random_presentation(model, quartet(2), 1))
        b = joint_distribution(random_presentation(model, quartet(3), 2))
        mixture = PatternTensor((a.values + b.values) / 2.0, a.labels,
                                stochastic=True)
        result = reconstruct_by_splits(mixture, model)
        assert result.warnings  # wrong answers must carry a diagnosis
        assert result.warnings[0] == WARN_ABOVE_TOL
        assert len(result.warnings) == 2
        assert "1 chosen splits score above tol 1e-08" in result.warnings[1]

    def test_leaf_guard(self):
        psi = PatternTensor(np.zeros(4 ** 3), (1, 2, 3))
        with pytest.raises(ValueError):
            reconstruct_by_splits(psi, builtin_model("GMM"))

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", range(5, 10))
    def test_joining_agrees_with_greedy_selection(self, n, name):
        model = builtin_model(name)
        tree = random_tree(n, n)
        psi = joint_distribution(random_presentation(model, tree, n))
        sampled = empirical_tensor(sample_alignment(psi, 3000, seed=n))
        disagreements = []
        for kind, tensor in (("exact", psi), ("3000 sites", sampled)):
            joined = reconstruct_by_splits(tensor, model).tree
            greedy = greedy_splits_tree(tensor, model)
            if joined != greedy:
                disagreements.append((kind, to_newick(joined),
                                      to_newick(greedy)))
        assert disagreements == []

    def test_report_reads_the_scored_splits(self):
        # 10^4 sites of an 8-leaf K81 caterpillar: the default tol comes
        # from the scored splits only, below the median of all of them, and
        # every runner-up lies off the tree and scores above every joined
        # split
        model = builtin_model("K81")
        tree = from_newick("(((((((1,2),3),4),5),6),7),8);")[0]
        psi = joint_distribution(random_presentation(model, tree, 1))
        sampled = empirical_tensor(sample_alignment(psi, 10 ** 4, seed=1))
        table = score_splits(sampled, model, all_bipartitions(8, True))
        result = reconstruct_by_splits(sampled, model, tol=None)
        assert result.tree == tree
        assert result.tol < data_driven_tol(s.score for s in table.values())
        assert len(result.chosen_splits) == 5
        assert 1 <= len(result.rejected_splits) <= 5
        assert not {s.split for s in result.rejected_splits} & set(
            tree.interior_splits())
        assert (min(s.score for s in result.rejected_splits)
                > max(s.score for s in result.chosen_splits))


class TestSplitCounts:
    """The split table scores each bipartition at most once, and joining
    asks it for fewer than n^2 of them."""

    @staticmethod
    def counted(monkeypatch) -> list:
        # the nontrivial splits the table flattens, in stacks
        scored = []
        original = edgeinv.scores.character_flattening

        def counting(psi, splits, model):
            scored.extend(s for s in splits if not s.is_trivial)
            return original(psi, splits, model)

        monkeypatch.setattr(edgeinv.scores, "character_flattening", counting)
        return scored

    def test_eight_leaves_score_43_splits(self, monkeypatch):
        scored = self.counted(monkeypatch)
        model = builtin_model("K81")
        tree = random_tree(8, 3)
        psi = joint_distribution(random_presentation(model, tree, 3))
        sampled = empirical_tensor(sample_alignment(psi, 3000, seed=3))
        for tensor in (psi, sampled):
            scored.clear()
            result = reconstruct_by_splits(tensor, model, tol=None)
            assert len(scored) == len(set(scored)) == 43
        assert result.tol == data_driven_tol(
            split_score(sampled, split, model).score
            for split in tuple(scored))

    def test_all_splits_score_119(self, monkeypatch):
        # score --all-splits at 8 leaves; the 8 trivial splits score 0 by
        # construction
        scored = self.counted(monkeypatch)
        model = builtin_model("K80")
        psi = joint_distribution(random_presentation(model, random_tree(8, 1),
                                                     1))
        assert len(score_splits(psi, model, all_bipartitions(8))) == 127
        assert len(scored) == len(set(scored)) == 119

    def test_exhaustive_scores_each_split_once(self, monkeypatch):
        scored = self.counted(monkeypatch)
        model = builtin_model("JC69")
        psi = joint_distribution(random_presentation(model, caterpillar6(), 3))
        reconstruct_exhaustive(psi, model, tol=None)
        assert len(scored) == len(set(scored)) == 25

    def test_ten_leaf_k81_caterpillar(self, monkeypatch):
        scored = self.counted(monkeypatch)
        model = builtin_model("K81")
        tree = from_newick("(((((((((1,2),3),4),5),6),7),8),9),10);")[0]
        psi = joint_distribution(random_presentation(model, tree, 1))
        result = reconstruct_by_splits(psi, model)
        assert len(scored) == len(set(scored)) == 75
        assert result.tree == tree
        assert result.confident


# ---------------------------------------------------------------------------
# Empirical tensors
# ---------------------------------------------------------------------------

class TestEmpiricalTensor:
    def test_point_mass(self):
        aln = alignment_from_counts(("a", "b", "c", "d"), {"AAAA": 1})
        psi = empirical_tensor(aln)
        assert psi.values[0] == 1.0
        assert psi.stochastic

    def test_two_patterns(self):
        aln = alignment_from_counts(("a", "b", "c", "d"),
                                    {"ACGT": 1, "TGCA": 1})
        psi = empirical_tensor(aln)
        assert sorted(psi.values[psi.values > 0]) == [0.5, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_tensor(alignment_from_counts(("a", "b"), {}))

    def test_ambiguous_patterns(self):
        with pytest.raises(ValueError):
            empirical_tensor(alignment_from_counts(("a", "b"),
                                                   {"AC": 3, "AN": 1}))

    def test_fasta_fixture_close_to_source(self):
        # frozen fixture: sharply diagonal matrices keep the sampling error
        # of 1000 sites within l1 0.1 (observed 0.068 for this seed pair)
        model = builtin_model("JC69")
        psi = joint_distribution(random_presentation(model, quartet(2), 4,
                                                     concentration=40.0))
        aln = sample_alignment(psi, 1000, seed=1002)
        back = empirical_tensor(read_fasta(write_fasta(aln)))
        assert np.abs(back.values - psi.values).sum() < 0.1

    def test_sampling_error_shrinks_like_root_sites(self):
        # one decade of sites should shrink the l1 gap by about sqrt(10);
        # the frozen seed lands the ratio inside the [0.2, 0.5] band around
        # the predicted 0.316
        model = builtin_model("K81")
        psi = joint_distribution(random_presentation(model, quartet(2), 4))
        gaps = []
        for sites in (10 ** 3, 10 ** 4):
            aln = sample_alignment(psi, sites, seed=5)
            gaps.append(np.abs(empirical_tensor(aln).values
                               - psi.values).sum())
        ratio = gaps[1] / gaps[0]
        assert 0.2 < ratio < 0.5


class TestDataDrivenTol:
    def test_median_rule(self):
        assert data_driven_tol([1.0, 2.0, 3.0]) == pytest.approx(0.02)

    def test_empty_falls_back(self):
        assert data_driven_tol([]) > 0

    def test_weights_repeat_scores(self):
        # the medians of [1, 2, 2, 2, 3] and of [1, 3, 3, 3]
        assert data_driven_tol([3.0, 1.0, 2.0], [1, 1, 3]) == pytest.approx(0.02)
        assert data_driven_tol([1.0, 3.0], [1, 3]) == pytest.approx(0.03)
        assert data_driven_tol([1.0, 2.0], [0, 0]) > 0


class TestConsistencyTrend:
    @pytest.mark.parametrize("name", ["K81", "GMM"])
    def test_accuracy_grows_with_sites_in_hard_regime(self, name):
        # near-star trees (interior edge close to identity) keep accuracy
        # off the ceiling at short lengths; frozen seeds make the counts
        # deterministic
        model = builtin_model(name)
        tree = quartet(2)
        accuracies = []
        for sites in (10 ** 2, 10 ** 3, 10 ** 4):
            correct = 0
            for seed in range(40):
                psi = joint_distribution(random_presentation(
                    model, tree, seed, concentration=300.0))
                aln = sample_alignment(psi, sites, seed=seed + 7 * sites)
                res = reconstruct_exhaustive(empirical_tensor(aln), model,
                                             check_genericity=False)
                correct += res.tree == tree
            accuracies.append(correct)
        assert accuracies[0] <= accuracies[1] <= accuracies[2]
        assert accuracies[0] < accuracies[2]  # the regime is genuinely hard
        assert accuracies[2] >= 38
