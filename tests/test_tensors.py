"""Flattening, thin flattening, rank, and contraction tests.

Derived fixtures were computed with the oracles below: an explicit 4-point
Hadamard transform for the thin blocks of the no-mutation tensor, direct
index construction for single-entry flattenings, and dense matrix products
for the contraction identities.
"""

import io
import itertools
import tracemalloc

import numpy as np
import pytest

import edgeinv.groups
from edgeinv.groups import EquivariantModel, Irrep, builtin_model, \
    clifford_reduction, label_classes, symmetry_adapted_basis
from edgeinv.scores import SplitTable, all_bipartitions, score_splits
from edgeinv.tensors import (
    AMBIGUOUS,
    CharacterTransform,
    PatternTensor,
    block_spectra,
    character_flattening,
    pattern_codes,
    pattern_indices,
    pattern_digits,
    pattern_strings,
    read_container,
    save_tensor,
    split_stacks,
    state_codes,
    tensor_from_json,
    tensor_to_json,
)
from edgeinv.trees import Bipartition
from helpers import (
    averaged,
    basis_matrix,
    character_transform_loop,
    flatten,
    flattening_rank,
    group_average,
    identity_link,
    per_split_blocks,
    permute_labels,
    reassemble_flattening,
    stack_of_one,
    star_contract,
    tensor_to_bytes,
    thin_flatten,
    thin_rank,
)

MODELS = ["GMM", "SSM", "K81", "K80", "JC69"]


def no_mutation_tensor(n: int, normalized: bool = True) -> PatternTensor:
    """sum_b b (x) ... (x) b, optionally scaled to a distribution."""
    values = np.zeros(4 ** n)
    for b in range(4):
        idx = sum(b * 4 ** i for i in range(n))
        values[idx] = 0.25 if normalized else 1.0
    return PatternTensor(values, tuple(range(1, n + 1)),
                         stochastic=normalized)


def random_tensor(labels, seed, stochastic=False) -> PatternTensor:
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=4 ** len(labels))
    if stochastic:
        vals = np.abs(vals)
        vals /= vals.sum()
    return PatternTensor(vals, tuple(labels), stochastic=stochastic)


def random_invariant(model_name, n, seed) -> PatternTensor:
    psi = random_tensor(range(1, n + 1), seed)
    return averaged(psi, builtin_model(model_name))


# ---------------------------------------------------------------------------
# PatternTensor basics
# ---------------------------------------------------------------------------

class TestPatternTensor:
    def test_stochastic_validation(self):
        with pytest.raises(ValueError):
            PatternTensor(np.full(4, 0.3), (1,), stochastic=True)
        bad = np.array([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            PatternTensor(bad, (1,), stochastic=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PatternTensor(np.array([np.nan] + [0.0] * 3), (1,))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PatternTensor(np.zeros(16), (1, 1))

    def test_values_read_only(self):
        psi = no_mutation_tensor(2)
        with pytest.raises(ValueError):
            psi.values[0] = 9.0

    def test_from_pattern_counts(self):
        psi = PatternTensor.from_pattern_counts({"AC": 0.5, "TG": 0.5}, 2,
                                                stochastic=True)
        assert psi.values[1] == 0.5        # AC = 0*4 + 1
        assert psi.values[3 * 4 + 2] == 0.5  # TG

    def test_canonical_label_reorder(self):
        psi = random_tensor((3, 1, 2), seed=0)
        canon = psi.with_canonical_labels()
        assert canon.labels == (1, 2, 3)
        # entry (x1, x2, x3) of the canonical tensor is entry (x3, x1, x2)
        assert canon.nd()[0, 1, 2] == pytest.approx(psi.nd()[2, 0, 1])


# ---------------------------------------------------------------------------
# Plain flattenings
# ---------------------------------------------------------------------------

class TestAlphabet:
    def test_state_codes_mark_all_but_upper_case_acgt(self):
        codes = state_codes("ACGTacgtN-?\xe9\u20ac")
        assert codes.tolist() == [0, 1, 2, 3] + [AMBIGUOUS] * 9

    def test_state_codes_of_bytes_are_those_of_latin_1_text(self):
        text = "ACGTacgtN-?\xe9\xff"
        assert np.array_equal(state_codes(text.encode("latin-1")),
                              state_codes(text))

    def test_column_frequencies_count_repeated_columns(self):
        psi = PatternTensor.column_frequencies(pattern_codes(
            ["AC", "GT", "AC"], 2))
        assert psi.stochastic and psi.labels == (1, 2)
        assert psi.values[[1, 11]].tolist() == [2 / 3, 1 / 3]
        assert psi.values.sum() == 1.0

    def test_index_is_base_four_first_position_most_significant(self):
        codes = pattern_codes(["TA", "CG", "AA"], 2)
        assert codes.shape == (2, 3)
        assert pattern_indices(codes).tolist() == [12, 6, 0]

    def test_index_of_twelve_positions_is_horner_in_int64(self):
        codes = np.random.default_rng(12).integers(0, 4, (12, 300), np.uint8)
        codes[:, 0], codes[:, 1] = 3, 0  # the largest index and the least
        want = np.zeros(300, np.int64)
        for row in codes:
            want = want * 4 + row
        got = pattern_indices(codes)
        assert got.dtype == np.uint32
        assert got[0] == 4 ** 12 - 1 and got[1] == 0
        assert np.array_equal(got, want)

    def test_thirteen_positions_raise_before_an_array_is_built(self):
        codes = np.zeros((13, 10 ** 5), np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="13 positions outside"):
                pattern_indices(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5

    @pytest.mark.parametrize("n", [*range(7), 12])
    def test_strings_invert_indices_in_string_order(self, n):
        indices = np.unique(np.random.default_rng(n).integers(0, 4 ** n, 50))
        patterns = pattern_strings(indices, n)
        assert patterns == sorted(patterns)
        assert all(len(p) == n and set(p) <= set("ACGT") for p in patterns)
        assert np.array_equal(pattern_indices(pattern_codes(patterns, n)),
                              indices)
        digits = pattern_digits(indices, n)
        assert digits.dtype == np.uint8
        assert np.array_equal(digits, pattern_codes(patterns, n))

    @pytest.mark.parametrize("counts, message", [
        ({"AANA": 1.0, "AN": 1.0}, "non-ACGT symbol in pattern 'AANA'"),
        ({"AN": 1.0, "AANA": 1.0}, "pattern 'AN' is not length 4"),
        ({"ACGT": 1.0, "acgt": 1.0}, "non-ACGT symbol in pattern 'acgt'"),
    ])
    def test_first_bad_pattern_named(self, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PatternTensor.from_pattern_counts(counts, 4)


class TestFlatten:
    def test_identity_link_flattens_to_identity(self):
        mat = flatten(identity_link(1, 2), Bipartition({2}, 2))
        assert np.array_equal(mat, np.eye(4))

    def test_single_entry_bookkeeping(self):
        psi = PatternTensor.from_pattern_counts({"ACGT": 1.0}, 4)
        mat = flatten(psi, Bipartition({1, 3}, 4))
        # leaves {1,3} carry states (A,G) -> row 2; {2,4} carry (C,T) -> col 7
        expected = np.zeros((16, 16))
        expected[2, 7] = 1.0
        assert np.array_equal(mat, expected)

    def test_no_mutation_any_balanced_split_is_rank_four_diagonal(self):
        psi = no_mutation_tensor(4, normalized=False)
        for side in ({1, 2}, {1, 3}, {1, 4}):
            mat = flatten(psi, Bipartition(side, 4))
            expected = np.zeros((16, 16))
            for b in range(4):
                expected[5 * b, 5 * b] = 1.0
            assert np.array_equal(mat, expected)
            assert np.linalg.matrix_rank(mat) == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_isometry(self, seed):
        psi = random_tensor(range(1, 6), seed)
        mat = flatten(psi, Bipartition({2, 4}, 5))
        assert np.linalg.norm(mat) == pytest.approx(psi.norm())

    def test_mismatched_split_rejected(self):
        psi = random_tensor(range(1, 5), 0)
        with pytest.raises(ValueError):
            flatten(psi, Bipartition({1, 2}, 5))


# ---------------------------------------------------------------------------
# Thin flattenings
# ---------------------------------------------------------------------------

class TestThinFlatten:
    def test_no_mutation_gmm_single_block(self):
        tf = thin_flatten(no_mutation_tensor(4), Bipartition({1, 2}, 4),
                          builtin_model("GMM"))
        assert len(tf.blocks) == 1
        assert tf.blocks[0].shape == (16, 16)
        assert np.linalg.matrix_rank(tf.blocks[0]) == 4

    def test_no_mutation_k81_hadamard_oracle(self):
        # independent oracle: transform the flattening by the explicit
        # two-site Hadamard basis and read off the four character classes
        psi = no_mutation_tensor(4)
        mat = flatten(psi, Bipartition({1, 2}, 4))
        hadamard = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                                   [1, -1, 1, -1], [1, -1, -1, 1]]).T
        h2 = np.kron(hadamard, hadamard)
        transformed = h2.T @ mat @ h2
        # character of the product vector i (x) j is the XOR of the labels
        char = [[(0, 1, 2, 3)[i] ^ (0, 1, 2, 3)[j] for j in range(4)]
                for i in range(4)]
        char = np.array(char).reshape(-1)
        for c in range(4):
            rows = np.where(char == c)[0]
            block = transformed[np.ix_(rows, rows)]
            others = transformed[np.ix_(rows, np.where(char != c)[0])]
            assert np.abs(others).max() < 1e-12
            assert np.linalg.matrix_rank(block, tol=1e-9) == 1

        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model("K81"))
        assert [b.shape for b in tf.blocks] == [(4, 4)] * 4
        ranks = thin_rank(tf, tol=1e-9)
        assert ranks.entries == (1, 1, 1, 1)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_tensor_has_no_leakage(self, name, seed):
        psi = random_invariant(name, 4, seed)
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model(name))
        assert tf.leakage <= 1e-10
        assert tf.copy_disagreement <= 1e-10

    def test_raw_empirical_tensor_reports_leakage(self):
        psi = random_tensor(range(1, 5), 11)
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model("JC69"))
        assert tf.leakage > 1e-3

    @pytest.mark.parametrize("name", MODELS)
    def test_block_shapes_match_multiplicities(self, name):
        model = builtin_model(name)
        psi = random_tensor(range(1, 6), 3)
        tf = thin_flatten(psi, Bipartition({2, 5}, 5), model)
        m2 = model.multiplicities(2).entries
        m3 = model.multiplicities(3).entries
        # side containing leaf 1 has three leaves -> rows m(3), columns m(2)
        for t, block in enumerate(tf.blocks):
            assert block.shape == (m3[t], m2[t])

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_reassembly_roundtrip(self, name, seed):
        model = builtin_model(name)
        psi = random_invariant(name, 4, seed)
        split = Bipartition({1, 3}, 4)
        tf = thin_flatten(psi, split, model)
        back = reassemble_flattening(tf, model)
        assert np.abs(back - flatten(psi, split)).max() < 1e-10

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_spectrum_splits_into_blocks_with_multiplicity(self, name, seed):
        # the plain flattening's singular values are exactly the blocks'
        # singular values, each repeated by its irrep dimension
        model = builtin_model(name)
        psi = random_invariant(name, 4, seed)
        split = Bipartition({1, 3}, 4)
        tf = thin_flatten(psi, split, model)
        full = np.sort(np.linalg.svd(flatten(psi, split), compute_uv=False))
        pieces = []
        for d, block in zip(tf.dims, tf.blocks):
            if block.size:
                pieces.extend(list(np.linalg.svd(block, compute_uv=False)) * d)
        assert np.abs(np.sort(pieces) - full).max() < 1e-10

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(3))
    def test_rank_accounting_weighted_by_dimension(self, name, seed):
        # the plain flattening rank equals the dimension-weighted block ranks
        # at the same relative tolerance, for exactly invariant tensors
        model = builtin_model(name)
        psi = random_invariant(name, 4, seed)
        split = Bipartition({1, 2}, 4)
        tf = thin_flatten(psi, split, model)
        ranks = thin_rank(tf, tol=1e-7)
        assert ranks.weighted == flattening_rank(flatten(psi, split), tol=1e-7)


def full_transform_blocks(psi, split, model):
    """Reference blocks: the whole flattening is transformed into the adapted
    bases of both sides and each irrep's first-copy block is sliced out."""
    mat = flatten(psi, split)
    basis1 = symmetry_adapted_basis(model, int(np.log2(mat.shape[0])) // 2)
    basis2 = symmetry_adapted_basis(model, int(np.log2(mat.shape[1])) // 2)
    half = basis_matrix(basis1).T @ mat
    transformed = np.asarray((basis_matrix(basis2).T @ half.T).T)
    blocks = []
    for t in range(model.n_irreps):
        rows, cols = basis1.columns(t, 0), basis2.columns(t, 0)
        blocks.append(transformed[rows.start:rows.stop,
                                  cols.start:cols.stop].copy())
    return blocks


class TestThinFlattenOracle:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_blocks_bit_identical_to_full_transform(self, name, n):
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), n)
        for split in all_bipartitions(n):
            tf = thin_flatten(psi, split, model)
            expected = full_transform_blocks(psi, split, model)
            assert len(tf.blocks) == len(expected)
            for got, want in zip(tf.blocks, expected):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_diagnostics_computed_on_first_access(self):
        psi = random_tensor(range(1, 5), 11)
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model("K80"))
        assert "_invariance_gaps" not in tf.__dict__
        assert tf.leakage > 1e-3
        assert "_invariance_gaps" in tf.__dict__

    def test_peak_memory_below_full_transform(self):
        # the full transformed matrix and its abs copy are 2 tensors' worth
        model = builtin_model("K80")
        psi = random_tensor(range(1, 9), 5)
        split = Bipartition({1, 3, 5, 7}, 8)
        thin_flatten(psi, split, model)  # build and cache the bases first
        tracemalloc.start()
        try:
            thin_flatten(psi, split, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * 4 ** 8


def kept_class(psi: PatternTensor, model) -> np.ndarray:
    """The class of label 0 of ``character_transform_loop``, its axes in
    label order: ``CharacterTransform.kept``, flat."""
    full = character_transform_loop(psi, model).reshape((4,) * psi.n)
    ordered = full.transpose(np.argsort(psi.labels)).reshape(-1)
    return ordered[label_classes(model, psi.n)[0]]


def assert_blocks_match(source, psi: PatternTensor, stack, model) -> None:
    """``character_flattening`` of ``source`` (``psi`` or its transform)
    along a stack of splits equals ``per_split_blocks`` byte for byte."""
    got = dict(character_flattening(source, stack, model))
    for i, split in enumerate(stack):
        for t, want in enumerate(per_split_blocks(psi, split, model)):
            assert got[t][i].shape == want.shape
            assert got[t][i].tobytes() == want.tobytes()


class TestCharacterFlattening:
    """The character route against the sparse-basis route: blocks differ
    by a change of basis, spectra and ranks must not."""

    @pytest.mark.parametrize("name", ["GMM", "SSM", "K81"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_transform_bit_identical_to_fresh_array_loop(self, name, n):
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), 30 + n)
        got = CharacterTransform(psi, model).kept
        k = {"GMM": 4, "SSM": 2, "K81": 1}[name]
        assert got.shape == (4,) * (n - 1) + (k,)
        assert got.tobytes() == kept_class(psi, model).tobytes()

    @pytest.mark.parametrize("name", ["GMM", "SSM", "K81"])
    @pytest.mark.parametrize("labels", [(3, 4, 5, 6), (3, 1, 4, 2, 5),
                                        (5, 2, 3, 1, 4), (2, 1)])
    def test_kept_class_in_any_label_order(self, name, labels):
        # the axes in label order, the largest label's last
        model = builtin_model(name)
        psi = random_tensor(labels, sum(labels))
        got = CharacterTransform(psi, model).kept
        assert got.tobytes() == kept_class(psi, model).tobytes()

    @pytest.mark.parametrize("name", ["SSM", "K81"])
    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_average_handed_over_gives_the_same_class(self, name, n):
        # writeable values are read and not written over
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), 40 + n)
        handed = PatternTensor(psi.values.copy(), psi.labels)
        handed.values.setflags(write=True)
        got = CharacterTransform(handed, model).kept
        assert got.base is None or got.base.size == got.size
        assert got.tobytes() == kept_class(psi, model).tobytes()
        assert handed.values.tobytes() == psi.values.tobytes()

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("average", [False, True])
    def test_blocks_bit_identical_to_per_split_blocks(self, name, n,
                                                      average):
        # every bipartition, in the table's stacks, against the full
        # transform gathered by flat indices one split at a time
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), 50 + n)
        if average:
            psi = averaged(psi, model)
        transform = CharacterTransform(psi, clifford_reduction(model).labels)
        for stack in split_stacks(all_bipartitions(n), model):
            assert_blocks_match(transform, psi, stack, model)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("labels", [(3, 4, 5, 6), (3, 1, 4, 2, 5)])
    def test_blocks_in_any_label_order(self, name, labels):
        # both orders of every pair of sides, stacked by side sizes: the
        # largest label is on either side, and need not be the last axis
        model = builtin_model(name)
        psi = random_tensor(labels, len(labels))
        transform = CharacterTransform(psi, clifford_reduction(model).labels)
        shapes = {}
        for r in range(1, len(labels)):
            for side1 in itertools.combinations(labels, r):
                side2 = tuple(lab for lab in labels if lab not in side1)
                shapes.setdefault(r, []).append((side1, side2))
        for stack in shapes.values():
            assert_blocks_match(transform, psi, stack, model)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_positions(self, n):
        # no split, but a table all the same, as for more positions
        psi = random_tensor(range(1, n + 1), 7)
        for name in MODELS:
            table = SplitTable(psi, builtin_model(name))
            assert table.scored == {} and table.transform.kept.size <= 4

    def test_label_that_is_not_its_own_inverse_rejected(self, monkeypatch):
        # a label group of order 4 that is cyclic: the label-1 block pairs
        # label 1 with label 1, which lies in the label-2 class
        k81 = builtin_model("K81")
        cyclic = EquivariantModel("K81-cyclic", k81.elements, k81.irreps)
        table = edgeinv.groups._label_table

        def labels_of(model):
            if model is not cyclic:
                return table(model)
            labels = np.arange(4)
            return labels, (labels[:, None] + labels) % 4

        monkeypatch.setattr(edgeinv.groups, "_label_table", labels_of)
        with pytest.raises(ValueError, match="K81-cyclic"):
            CharacterTransform(random_tensor(range(1, 5), 3), cyclic)

    def test_labels_of_unequal_digit_counts_rejected(self):
        # the group {id, (AC)}: three digits of the trivial label, one of
        # the sign, so the class has no last axis of one length
        ones = np.ones((2, 1, 1))
        signs = np.array([1.0, -1.0]).reshape(2, 1, 1)
        swap = EquivariantModel("AC-swap", [(0, 1, 2, 3), (1, 0, 2, 3)],
                                [Irrep("triv", 1, ones),
                                 Irrep("sgn", 1, signs)])
        with pytest.raises(ValueError, match="AC-swap"):
            CharacterTransform(random_tensor(range(1, 5), 3), swap)

    @pytest.mark.parametrize("name", ["GMM", "SSM", "K81"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("average", [False, True])
    def test_spectra_match_thin_flatten(self, name, n, average):
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), 10 + n)
        if average:
            psi = averaged(psi, model)
        for split in all_bipartitions(n):
            got = stack_of_one(psi, split, model)
            want = thin_flatten(psi, split, model)
            sigma_max = max(s[0] for s in want.spectra if s.size)
            for a, b in zip(got.spectra, want.spectra):
                assert a.shape == b.shape
                assert np.abs(a - b).max(initial=0.0) <= 1e-12 * sigma_max
            assert thin_rank(got).entries == thin_rank(want).entries
            assert (got.row_mult, got.col_mult) == (want.row_mult,
                                                    want.col_mult)

    @pytest.mark.parametrize("name", ["K80", "JC69"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("average", [False, True])
    def test_klein_route_spectra_match_thin_flatten(self, name, n, average):
        # from K81's transform, averaged over the stabiliser of a state,
        # gathers and a stabiliser change of basis: the blocks of the group
        # average, every irrep's, whether or not the tensor is invariant
        model = builtin_model(name)
        psi = random_tensor(range(1, n + 1), 20 + n)
        if average:
            psi = averaged(psi, model)
        for split in all_bipartitions(n):
            got = stack_of_one(psi, split, model)
            want = thin_flatten(averaged(psi, model), split, model)
            sigma_max = max(s[0] for s in want.spectra if s.size)
            for a, b in zip(got.spectra, want.spectra):
                assert a.shape == b.shape
                assert np.abs(a - b).max(initial=0.0) <= 1e-12 * sigma_max
            assert thin_rank(got).entries == thin_rank(want).entries
            assert (got.row_mult, got.col_mult) == (want.row_mult,
                                                    want.col_mult)

    def test_positions_in_any_label_order(self):
        model = builtin_model("K81")
        psi = random_tensor((3, 1, 5, 2, 4), 2)
        for split in all_bipartitions(5):
            got = stack_of_one(psi, split, model)
            want = thin_flatten(psi, split, model)
            for a, b in zip(got.spectra, want.spectra):
                assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["GMM", "K81", "JC69"])
    def test_scoring_leaves_no_transform_on_the_tensor(self, name):
        # the split table owns its transform; an invariant tensor keeps
        # nothing tensor-sized once it is scored
        model = builtin_model(name)
        split = [Bipartition({1, 2, 3, 4}, 8)]
        score_splits(averaged(random_tensor(range(1, 9), 4), model), model,
                     split)  # fills the model's caches
        psi = averaged(random_tensor(range(1, 9), 3), model)
        tracemalloc.start()
        try:
            score_splits(psi, model, split)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.05 * psi.values.nbytes

    @pytest.mark.parametrize("name", ["K80", "JC69"])
    def test_stabiliser_average_is_the_group_average(self, name):
        # on tensors that are not invariant, over 0 to 9 positions and out
        # of label order: the kept class averaged over the stabiliser of
        # state A is the K81 kept class of the whole tensor's average
        model, k81 = builtin_model(name), builtin_model("K81")
        cases = [tuple(range(1, n + 1)) for n in range(10)]
        for labels in cases + [(3, 1, 4, 2, 5), (5, 2, 3, 1, 4), (2, 1)]:
            psi = random_tensor(labels, 60 + len(labels))
            got = CharacterTransform(psi, model).kept
            want = CharacterTransform(averaged(psi, model), k81).kept
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestThinRank:
    def test_zero_tensor(self):
        psi = PatternTensor(np.zeros(256), (1, 2, 3, 4))
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model("K81"))
        ranks = thin_rank(tf)
        assert ranks.entries == (0, 0, 0, 0)
        assert ranks.total == 0 and ranks.weighted == 0

    def test_rank_bounded_by_block_size(self):
        psi = random_tensor(range(1, 5), 5)
        model = builtin_model("JC69")
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), model)
        ranks = thin_rank(tf)
        m2 = model.multiplicities(2).entries
        for r, m in zip(ranks.entries, m2):
            assert r <= m

    def test_tolerance_validated(self):
        psi = random_tensor(range(1, 5), 5)
        tf = thin_flatten(psi, Bipartition({1, 2}, 4), builtin_model("K81"))
        with pytest.raises(ValueError):
            thin_rank(tf, tol=0.0)

    @pytest.mark.parametrize("name", MODELS)
    def test_spectra_are_block_singular_values(self, name):
        psi = random_invariant(name, 5, 3)
        tf = thin_flatten(psi, Bipartition({1, 2}, 5), builtin_model(name))
        assert tf.spectra is tf.spectra  # computed once
        for block, spectrum in zip(tf.blocks, tf.spectra):
            if not block.size:
                assert spectrum.shape == (0,)
                continue
            # a wide block is factored as its transpose: the same singular
            # values, to rounding
            tall = np.ascontiguousarray(block.T if len(block) < len(block.T)
                                        else block)
            expected = np.linalg.svd(tall, compute_uv=False)
            assert np.array_equal(spectrum, expected)
            direct = np.linalg.svd(block, compute_uv=False)
            assert np.abs(spectrum - direct).max() <= 1e-13 * direct[0]

    @pytest.mark.parametrize("name", MODELS)
    def test_stacks_transpose_alike(self, name):
        # every non-square stack of a 6-leaf table: its spectra do not
        # depend on which side gives the rows
        model = builtin_model(name)
        transform = CharacterTransform(random_tensor(range(1, 7), 6), model)
        seen = 0
        for stack in split_stacks(all_bipartitions(6, nontrivial_only=True),
                                  model):
            for _, blocks in character_flattening(transform, stack, model):
                if blocks.shape[1] != blocks.shape[2]:
                    seen += 1
                    assert np.array_equal(
                        block_spectra(blocks),
                        block_spectra(blocks.swapaxes(-1, -2)))
        assert seen


# ---------------------------------------------------------------------------
# The gluing contraction
# ---------------------------------------------------------------------------

class TestStarContract:
    def test_identity_glues_to_identity(self):
        out = star_contract(identity_link(1, 2), identity_link(2, 3), {2})
        assert out.labels == (1, 3)
        assert np.array_equal(out.values, identity_link(1, 3).values)

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_is_neutral(self, seed):
        phi = random_tensor((1, 2, 3), seed)
        out = star_contract(phi, identity_link(3, 9), {3})
        assert out.labels == (1, 2, 9)
        assert np.allclose(out.values, phi.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_flattening_product_identity_single_shared(self, seed):
        phi1 = random_tensor((1, 2, 3), seed)
        phi2 = random_tensor((3, 4, 5), seed + 100)
        glued = star_contract(phi1, phi2, {3})
        left = flatten(phi1, ({1, 2}, {3}))
        right = flatten(phi2, ({3}, {4, 5}))
        product = left @ right
        direct = flatten(glued, ({1, 2}, {4, 5}))
        assert np.abs(product - direct).max() < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_flattening_product_identity_two_shared(self, seed):
        phi1 = random_tensor((1, 2, 3, 4), seed)
        phi2 = random_tensor((3, 4, 5, 6), seed + 7)
        glued = star_contract(phi1, phi2, {3, 4})
        left = flatten(phi1, ({1, 2}, {3, 4}))
        right = flatten(phi2, ({3, 4}, {5, 6}))
        direct = flatten(glued, ({1, 2}, {5, 6}))
        assert np.abs(left @ right - direct).max() < 1e-10

    @pytest.mark.parametrize("name", ["K81", "JC69"])
    @pytest.mark.parametrize("seed", range(3))
    def test_thin_flattening_product_identity(self, name, seed):
        # blockwise: blocks of the glued tensor are products of the factors'
        model = builtin_model(name)
        phi1 = averaged(random_tensor((1, 2, 3), seed), model)
        phi2 = averaged(random_tensor((3, 4, 5), seed + 50), model)
        glued = star_contract(phi1, phi2, {3})
        tf1 = thin_flatten(phi1, ({1, 2}, {3}), model)
        tf2 = thin_flatten(phi2, ({3}, {4, 5}), model)
        tf = thin_flatten(glued, ({1, 2}, {4, 5}), model)
        for b, b1, b2 in zip(tf.blocks, tf1.blocks, tf2.blocks):
            assert b.shape == (b1.shape[0], b2.shape[1])
            if b.size:
                assert np.abs(b - b1 @ b2).max() < 1e-10

    def test_empty_shared_rejected(self):
        with pytest.raises(ValueError):
            star_contract(identity_link(1, 2), identity_link(3, 4), set())

    def test_shared_must_exist(self):
        with pytest.raises(ValueError):
            star_contract(identity_link(1, 2), identity_link(3, 4), {2})


class TestPermuteLabels:
    def test_swap_two_leaves(self):
        psi = PatternTensor.from_pattern_counts({"ACGT": 1.0}, 4)
        swapped = permute_labels(psi, {1: 2, 2: 1})
        assert swapped.labels == (1, 2, 3, 4)
        assert swapped.values[np.flatnonzero(swapped.values)[0]] == 1.0
        # pattern seen at leaves (1,2,3,4) is now CAGT
        expected = PatternTensor.from_pattern_counts({"CAGT": 1.0}, 4)
        assert np.array_equal(swapped.values, expected.values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        psi = random_tensor(range(1, 5), 2, stochastic=True)
        path = tmp_path / "t.eqpt"
        save_tensor(psi, path)
        with open(path, "rb") as fh:
            back = read_container(fh)
        assert back.labels == psi.labels
        assert back.stochastic
        assert np.array_equal(back.values, psi.values)

    def test_save_writes_the_values_without_copies(self, tmp_path):
        # the header, then the array's own bytes, as ``tensor_to_bytes``
        # gives them; a tensor out of label order is transposed first
        path = tmp_path / "t.eqpt"
        shuffled = random_tensor((2, 3, 1), 4)
        save_tensor(shuffled, path)
        assert path.read_bytes() == tensor_to_bytes(shuffled)
        psi = random_tensor(range(1, 10), 4, stochastic=True)
        save_tensor(psi, path)
        assert path.read_bytes() == tensor_to_bytes(psi)
        tracemalloc.start()
        try:
            save_tensor(psi, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * psi.values.nbytes

    def test_read_holds_one_tensor(self, tmp_path):
        # the values are read into their array, and nothing else of the
        # tensor's size is allocated on the way
        path = tmp_path / "t.eqpt"
        psi = random_tensor(range(1, 10), 5, stochastic=True)
        save_tensor(psi, path)
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                back = read_container(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(back.values, psi.values)
        assert peak <= 1.05 * psi.values.nbytes

    def test_header_fields(self):
        psi = no_mutation_tensor(3)
        blob = tensor_to_bytes(psi)
        assert blob[:4] == b"EQPT"
        assert len(blob) == 12 + 8 * 64

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_container(io.BytesIO(b"XXXX" + bytes(16)))

    def test_ragged_payload_rejected(self):
        blob = tensor_to_bytes(no_mutation_tensor(2))
        with pytest.raises(ValueError, match="^buffer size must be a "
                                             "multiple of element size$"):
            read_container(io.BytesIO(blob + b"\0"))

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_container(io.BytesIO(
                tensor_to_bytes(no_mutation_tensor(2))[:10]))

    @pytest.mark.parametrize("text", [
        '{"n": 2}',
        '{"entries": [["AC", 1.0]]}',
        '{"n": 2, "entries": 3}',
        '{"n": 2, "entries": [["AX", 1.0]]}',
        '{"n": 2, "entries": [["ac", 1.0]]}',
        '{"n": 2, "entries": [[12, 1.0]]}',
        '{"n": 2, "entries": [["AC", "x"]]}',
        '{"n": 2, "entries": [["AC", null]]}',
        '{"n": 2, "entries": [["AC"]]}',
        '{"n": "2", "entries": [["AC", 1.0]]}',
        '{"n": 20, "entries": []}',
        pytest.param('{"n": 1, "entries": [["A", 1' + '0' * 400 + ']]}',
                     id="huge-integer"),
        pytest.param('[' * 100000 + ']' * 100000, id="deep-nesting"),
        '{"n": 1, "entries": [["A", 1.0]], "stochastic": [1]}',
        '{"n": 1, "entries": [["A", 1.0]], "stochastic": "no"}',
    ])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValueError):
            tensor_from_json(text)

    def test_json_roundtrip(self):
        psi = no_mutation_tensor(2)
        back = tensor_from_json(tensor_to_json(psi))
        assert np.array_equal(back.values, psi.values)
        assert back.stochastic


class TestGroupAveraging:
    @pytest.mark.parametrize("name", MODELS)
    def test_average_is_invariant(self, name):
        model = builtin_model(name)
        psi = random_tensor(range(1, 5), 9)
        avg = averaged(psi, model)
        again = group_average(avg.values, model, 4)
        assert np.abs(avg.values - again).max() < 1e-12

    def test_trivial_group_returns_input(self):
        psi = random_tensor(range(1, 4), 1)
        assert averaged(psi, builtin_model("GMM")) is psi

    def test_average_preserves_stochastic(self):
        psi = random_tensor(range(1, 4), 1, stochastic=True)
        avg = averaged(psi, builtin_model("JC69"))
        assert avg.stochastic
        assert avg.values.sum() == pytest.approx(1.0)
