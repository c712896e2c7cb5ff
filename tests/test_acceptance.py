"""Acceptance suite.

One test per criterion, each printing its own pass/fail line (run with -s to
see them inline) and asserting both the substance and the stated runtime cap.
Every tolerance is pinned here, not configured elsewhere.
"""

import time
from math import comb

import numpy as np

from edgeinv.groups import builtin_model, symmetry_adapted_basis
from edgeinv.reconstruct import (
    WARN_NO_UNIQUE_PASS,
    empirical_tensor,
    reconstruct_by_splits,
    reconstruct_exhaustive,
)
from edgeinv.scores import generator_catalog, model_fit_score
from edgeinv.simulate import (
    joint_distribution,
    random_presentation,
    sample_alignment,
)
from edgeinv.tensors import PatternTensor, averaged
from edgeinv.trees import Bipartition, splits_compatible, tree_from_splits
from helpers import enumerate_trivalent_topologies, flatten, \
    flattening_rank, no_mutation_presentation, star_contract, thin_flatten, \
    thin_rank

MODELS = ("GMM", "SSM", "K81", "K80", "JC69")

QUARTETS = enumerate_trivalent_topologies(4)
NONTRIVIAL_QUARTET_SPLITS = (Bipartition({1, 2}, 4), Bipartition({1, 3}, 4),
                             Bipartition({1, 4}, 4))


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number: int, name: str, ok: bool, details: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {name}: {status} ({details})", flush=True)
    assert ok, f"criterion {number} ({name}): {details}"


# ---------------------------------------------------------------------------

def test_criterion_1_character_and_multiplicity_fixtures():
    fixtures = {
        "GMM": ((4,), (16,)),
        "SSM": ((2, 2), (8, 8)),
        "K81": ((1, 1, 1, 1), (4, 4, 4, 4)),
        "K80": ((1, 0, 1, 0, 1), (3, 1, 3, 1, 4)),
        "JC69": ((1, 0, 0, 1, 0), (2, 0, 1, 3, 1)),
    }
    with Stopwatch() as clock:
        mismatches = []
        for name, (m1, m2) in fixtures.items():
            model = builtin_model(name)
            got1 = model.multiplicities(1).entries
            got2 = model.multiplicities(2).entries
            if got1 != m1 or got2 != m2:
                mismatches.append((name, got1, got2))
    ok = not mismatches and clock.elapsed < 1.0
    report(1, "multiplicity fixtures", ok,
           f"mismatches={mismatches}, {clock.elapsed:.2f}s < 1s")


def test_criterion_2_generator_catalog():
    with Stopwatch() as clock:
        checks = []
        cat = generator_catalog(builtin_model("K81"), 2, 2)
        checks.append(cat.total == 144 and cat.degree_set == {2})
        cat = generator_catalog(builtin_model("K80"), 2, 2)
        checks.append(cat.total == 56 and cat.count_for_degree(2) == 54
                      and cat.count_for_degree(1) == 2
                      and cat.degree_set == {1, 2})
        cat = generator_catalog(builtin_model("JC69"), 2, 2)
        checks.append(cat.total == 12 and cat.count_for_degree(2) == 10
                      and cat.count_for_degree(1) == 2
                      and cat.degree_set == {1, 2})
        cat = generator_catalog(builtin_model("SSM"), 2, 2)
        checks.append(cat.total == 6272 and cat.degree_set == {3})
        cat = generator_catalog(builtin_model("GMM"), 2, 2)
        checks.append(cat.total == comb(16, 5) ** 2
                      and cat.degree_set == {5})
    ok = all(checks) and clock.elapsed < 1.0
    report(2, "generator catalog", ok,
           f"checks={checks}, {clock.elapsed:.2f}s < 1s")


def test_criterion_3_rank_dichotomy_statistics():
    runs_per_cell = 100
    tol = 1e-7
    with Stopwatch() as clock:
        worst_cell = 1.0
        violations = 0
        for name in MODELS:
            model = builtin_model(name)
            m1 = model.multiplicities(1).entries
            m2 = model.multiplicities(2).entries
            for tree in QUARTETS:
                own = tree.interior_splits()[0]
                hits = 0
                for seed in range(runs_per_cell):
                    psi = joint_distribution(
                        random_presentation(model, tree, seed))
                    good = True
                    for beta in NONTRIVIAL_QUARTET_SPLITS:
                        achieved = thin_rank(thin_flatten(psi, beta, model),
                                             tol).entries
                        if beta == own:
                            good &= achieved == m1
                        else:
                            good &= achieved == m2
                            if all(a <= m for a, m in zip(achieved, m1)):
                                violations += 1
                    hits += good
                worst_cell = min(worst_cell, hits / runs_per_cell)
    ok = worst_cell >= 0.99 and violations == 0 and clock.elapsed < 30.0
    report(3, "rank dichotomy over 1500 simulations", ok,
           f"worst cell {worst_cell:.2f} >= 0.99, non-split rank collapses "
           f"{violations} == 0, {clock.elapsed:.1f}s < 30s")


def test_criterion_4_decision_procedure():
    with Stopwatch() as clock:
        exhaustive_failures = []
        for name in MODELS:
            model = builtin_model(name)
            for seed in range(100):
                tree = QUARTETS[seed % 3]
                psi = joint_distribution(random_presentation(model, tree,
                                                             seed))
                result = reconstruct_exhaustive(psi, model, tol=1e-8,
                                                check_genericity=False)
                if result.tree != tree or not result.confident:
                    exhaustive_failures.append((name, seed))

        intersection_ok = True
        for name in MODELS:
            psi = joint_distribution(no_mutation_presentation(QUARTETS[0]))
            result = reconstruct_exhaustive(psi, builtin_model(name),
                                            tol=1e-8, check_genericity=False)
            intersection_ok &= result.passers == 3
            intersection_ok &= WARN_NO_UNIQUE_PASS in result.warnings

        six_leaf = enumerate_trivalent_topologies(6)
        gmm = builtin_model("GMM")
        six_hits = 0
        for seed in range(100):
            tree = six_leaf[(seed * 17) % len(six_leaf)]
            psi = joint_distribution(random_presentation(gmm, tree, seed))
            result = reconstruct_by_splits(psi, gmm, tol=1e-8)
            six_hits += result.tree == tree
    ok = (not exhaustive_failures and intersection_ok and six_hits >= 99
          and clock.elapsed < 120.0)
    report(4, "decision procedure", ok,
           f"quartet failures {exhaustive_failures}, no-mutation all-pass "
           f"{intersection_ok}, 6-leaf hits {six_hits}/100 >= 99, "
           f"{clock.elapsed:.1f}s < 2min")


def test_criterion_5_structural_lemmas():
    n_seeds = 20
    with Stopwatch() as clock:
        # gluing product identities, plain and blockwise
        glue_ok = True
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            phi1 = PatternTensor(rng.normal(size=64), (1, 2, 3))
            phi2 = PatternTensor(rng.normal(size=64), (3, 4, 5))
            glued = star_contract(phi1, phi2, {3})
            lhs = flatten(glued, ({1, 2}, {4, 5}))
            rhs = flatten(phi1, ({1, 2}, {3})) @ flatten(phi2, ({3}, {4, 5}))
            glue_ok &= np.abs(lhs - rhs).max() < 1e-10
            for name in MODELS:
                model = builtin_model(name)
                inv1 = averaged(phi1, model)
                inv2 = averaged(phi2, model)
                tf = thin_flatten(star_contract(inv1, inv2, {3}),
                                  ({1, 2}, {4, 5}), model)
                tf1 = thin_flatten(inv1, ({1, 2}, {3}), model)
                tf2 = thin_flatten(inv2, ({3}, {4, 5}), model)
                for b, b1, b2 in zip(tf.blocks, tf1.blocks, tf2.blocks):
                    if b.size:
                        glue_ok &= np.abs(b - b1 @ b2).max() < 1e-10

        # dimension-weighted rank accounting on simulated tensors
        rank_ok = True
        for name in MODELS:
            model = builtin_model(name)
            for seed in range(n_seeds):
                tree = QUARTETS[seed % 3]
                psi = joint_distribution(random_presentation(model, tree,
                                                             seed))
                for beta in NONTRIVIAL_QUARTET_SPLITS:
                    ranks = thin_rank(thin_flatten(psi, beta, model), 1e-7)
                    plain = flattening_rank(flatten(psi, beta), 1e-7)
                    rank_ok &= ranks.weighted == plain

        # block diagonality of invariant tensors
        leak_ok = True
        for name in MODELS:
            model = builtin_model(name)
            for seed in range(n_seeds):
                rng = np.random.default_rng(1000 + seed)
                psi = averaged(PatternTensor(rng.normal(size=256),
                                             (1, 2, 3, 4)), model)
                tf = thin_flatten(psi, Bipartition({1, 2}, 4), model)
                leak_ok &= tf.leakage <= 1e-10
                leak_ok &= tf.copy_disagreement <= 1e-10

        # orthonormal complete bases
        basis_ok = True
        for name in MODELS:
            model = builtin_model(name)
            for power in range(1, 5):
                dense = symmetry_adapted_basis(model, power).dense()
                gram = dense.T @ dense
                basis_ok &= np.abs(gram - np.eye(4 ** power)).max() < 1e-10

        # multiplicity monotonicity in the tensor power
        mono_ok = True
        for name in MODELS:
            model = builtin_model(name)
            for power in range(1, 6):
                low = model.multiplicities(power).entries
                high = model.multiplicities(power + 1).entries
                mono_ok &= all(a <= b for a, b in zip(low, high))
    ok = (glue_ok and rank_ok and leak_ok and basis_ok and mono_ok
          and clock.elapsed < 30.0)
    report(5, "structural lemma suite", ok,
           f"gluing {glue_ok}, rank accounting {rank_ok}, leakage {leak_ok}, "
           f"bases {basis_ok}, monotonicity {mono_ok}, "
           f"{clock.elapsed:.1f}s < 30s")


def test_criterion_6_split_system_roundtrip():
    with Stopwatch() as clock:
        total = 0
        roundtrip_ok = True
        compat_ok = True
        for n in range(3, 8):
            for tree in enumerate_trivalent_topologies(n):
                total += 1
                splits = tree.interior_splits()
                for i in range(len(splits)):
                    for j in range(i + 1, len(splits)):
                        compat_ok &= splits_compatible(splits[i], splits[j])
                if n >= 4:
                    roundtrip_ok &= tree_from_splits(splits, n) == tree
    ok = (roundtrip_ok and compat_ok and total == 1 + 3 + 15 + 105 + 945
          and clock.elapsed < 10.0)
    report(6, "split-system round trip", ok,
           f"{total} topologies, roundtrip {roundtrip_ok}, compatibility "
           f"{compat_ok}, {clock.elapsed:.1f}s < 10s")


def test_criterion_7_sampled_data_robustness():
    model = builtin_model("K81")
    tree = QUARTETS[0]
    with Stopwatch() as clock:
        accuracy = {}
        for sites in (10 ** 3, 10 ** 4, 10 ** 5):
            hits = 0
            for seed in range(100):
                psi = joint_distribution(random_presentation(model, tree,
                                                             seed))
                aln = sample_alignment(psi, sites, seed=seed + 13 * sites)
                result = reconstruct_exhaustive(empirical_tensor(aln), model,
                                                check_genericity=False)
                hits += result.tree == tree
            accuracy[sites] = hits
    counts = [accuracy[10 ** 3], accuracy[10 ** 4], accuracy[10 ** 5]]
    ok = (accuracy[10 ** 5] >= 95 and counts[0] <= counts[1] <= counts[2]
          and clock.elapsed < 300.0)
    report(7, "sampled-data robustness", ok,
           f"accuracy {counts} per 100 at 1e3/1e4/1e5 sites, "
           f"{clock.elapsed:.1f}s < 5min")


def test_criterion_8_model_fit_nesting():
    chain = ("JC69", "K80", "K81", "GMM")
    with Stopwatch() as clock:
        monotone_ok = True
        for seed in range(100):
            rng = np.random.default_rng(seed)
            psi = PatternTensor(rng.random(256), (1, 2, 3, 4))
            scores = [model_fit_score(psi, builtin_model(name))
                      for name in chain]
            monotone_ok &= all(a >= b - 1e-15
                               for a, b in zip(scores, scores[1:]))
        self_ok = True
        for seed in range(5):
            psi = joint_distribution(
                random_presentation(builtin_model("JC69"), QUARTETS[0], seed))
            self_ok &= model_fit_score(psi, builtin_model("JC69")) <= 1e-12
    ok = monotone_ok and self_ok and clock.elapsed < 10.0
    report(8, "model-fit nesting", ok,
           f"monotone {monotone_ok}, self-fit {self_ok}, "
           f"{clock.elapsed:.1f}s < 10s")
