"""Representation-engine tests.

Character/multiplicity fixtures are the published tables for the five
substitution symmetries; basis fixtures are the explicit Fourier/Hadamard
vectors those tables induce on the one-site state space.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import edgeinv.groups as G
from edgeinv.groups import (
    MODEL_NAMES,
    EquivariantModel,
    Irrep,
    builtin_model,
    clifford_reduction,
    expected_rank_vector,
    symmetry_adapted_basis,
)
from edgeinv.trees import Bipartition, TreeTopology
from helpers import conjugation_classes, group_average, \
    invariant_projector, orbit_averages, pairwise_closure, pattern_maps, \
    table_digest, transposition_group

HADAMARD = {
    "Abar": np.array([1.0, 1.0, 1.0, 1.0]),
    "Cbar": np.array([1.0, 1.0, -1.0, -1.0]),
    "Gbar": np.array([1.0, -1.0, 1.0, -1.0]),
    "Tbar": np.array([1.0, -1.0, -1.0, 1.0]),
}


def quartet12() -> TreeTopology:
    return TreeTopology(4, [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])


# ---------------------------------------------------------------------------
# Group structure and character tables
# ---------------------------------------------------------------------------

class TestModels:
    @pytest.mark.parametrize("name,order", [
        ("GMM", 1), ("SSM", 2), ("K81", 4), ("K80", 8), ("JC69", 24)])
    def test_group_orders(self, name, order):
        assert builtin_model(name).order == order

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_model("HKY")

    def test_jc69_charater_row(self):
        m = builtin_model("JC69")
        assert m.dims == (1, 1, 2, 3, 3)
        # fixed-state counts at one representative per class:
        # id, transposition, 3-cycle, 4-cycle, double transposition
        assert m.character_at((0, 1, 2, 3)) == 4
        assert m.character_at((1, 0, 2, 3)) == 2
        assert m.character_at((1, 2, 0, 3)) == 1
        assert m.character_at((1, 2, 3, 0)) == 0
        assert m.character_at((1, 0, 3, 2)) == 0
        assert sorted(m.class_sizes) == [1, 3, 6, 6, 8]

    def test_k81_character_row(self):
        m = builtin_model("K81")
        assert m.dims == (1, 1, 1, 1)
        assert m.permutation_character() == (4, 0, 0, 0)
        assert m.class_sizes == (1, 1, 1, 1)

    def test_k80_chi_cross_check(self):
        # classes come from the group itself; the fixed-state counts at the
        # five textbook representatives are (4, 0, 2, 0, 0)
        m = builtin_model("K80")
        assert m.character_at((0, 1, 2, 3)) == 4   # id
        assert m.character_at((1, 2, 3, 0)) == 0   # (ACGT)
        assert m.character_at((2, 1, 0, 3)) == 2   # (AG)
        assert m.character_at((2, 3, 0, 1)) == 0   # (AG)(CT)
        assert m.character_at((3, 0, 1, 2)) == 0   # (ATGC)
        assert m.dims == (1, 1, 1, 1, 2)
        assert sorted(m.class_sizes) == [1, 1, 2, 2, 2]

    def test_gmm_trivial(self):
        m = builtin_model("GMM")
        assert m.n_irreps == 1
        assert m.permutation_character() == (4,)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_character_orthogonality_exact(self, name):
        m = builtin_model(name)
        gram = m.characters @ m.characters.T
        assert np.array_equal(gram, m.order * np.eye(m.n_irreps, dtype=int))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dimension_sum(self, name):
        m = builtin_model(name)
        assert sum(d * d for d in m.dims) == m.order

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_permutation_character_is_fixed_count(self, name):
        m = builtin_model(name)
        for i, g in enumerate(m.elements):
            assert m.fixed_counts[i] == sum(1 for x in range(4) if g[x] == x)


# the generators each builder closes over, as its comments name them
GENERATORS = {
    "GMM": [],
    "SSM": [(3, 2, 1, 0)],
    "K81": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "K80": [(1, 2, 3, 0), (2, 1, 0, 3)],
    "JC69": [(1, 0, 2, 3), (1, 2, 3, 0)],
}

# sha256 (helpers.table_digest) of the tables as the loop-by-loop
# construction built them: every entry, bit for bit
TABLE_DIGESTS = {
    "GMM": ("678eedaa9651c95c7039a265e6763a65039f1003acfb9e7cb1729a8c63bb41ea",
            "fd29102a20a05c69e1e8805b964b54ba3d0aa862f038e81298616cf90acc4727",
            "1cc4c542ea009721fa4367871d17a802eb95b4094d4507366434272320db77a6"),
    "SSM": ("a1cf096ecb34deffb04d36acc47bed822264ef3f46ff2717a9644a7c1913a602",
            "b3c1496d9690cedf7f02dcb27c92133f543688a2d68ca1878607137f6a460b47",
            "44de44b2c3109e8810955eed28269416a07284c63385f6452b1f6539fd52e7fe"),
    "K81": ("bcb4f87bff458c6e34fcba450608ca7d376d036f55c42d11cb3da63d19a66150",
            "93b1a7011777247f54577300ea82ee20272a336dafe126383dbfedda0021205c",
            "2156aec89c4c7b5223454c76080827ce8846ffa2f8b6f9d7fb4b2dc5a9eb7b23"),
    "K80": ("17ceafd5d844c734a0fb27a6a69113680a51e597e7a7c702cee5eaa16f24f64c",
            "64f4ad4fc5b804011a15386104e94e452ef74d9084fb621745ba459b7f63053a",
            "f4da6fd5565fe2c4c08fd7ca82f3485de94a6bd6b6b4db040e22c882eac2d85d"),
    "JC69": ("5c599b50ddf62a461eeaf1cb868396471f4b19143f2561ef38e3ad00297ae5e2",
             "0e070a3abd3c6b417dc7c7773b454a36be3c687b34562e22fdff56a2c70be973",
             "cf95b0fd4e5af41c7bf162ff61a0948c87b73c70ec25a72ee90a48df6aae0116"),
}


class TestTables:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_elements_and_classes_match_brute_force(self, name):
        model = builtin_model(name)
        assert model.elements == pairwise_closure(GENERATORS[name])
        assert model.conjugacy_classes == conjugation_classes(model.elements)

    def test_closure_by_generators_matches_pairwise(self):
        s4 = builtin_model("JC69").elements
        rng = np.random.default_rng(0)
        sets = [[g] for g in s4] + [
            [s4[i] for i in rng.choice(24, size=k, replace=False)]
            for k in (2, 2, 2, 3, 3) for _ in range(6)]
        for gens in sets:
            assert G._closure(gens) == pairwise_closure(gens)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_tables_match_pinned_digests(self, name):
        model = builtin_model(name)
        reduction = clifford_reduction(model)
        cyclic, first, bases = TABLE_DIGESTS[name]
        assert table_digest(G._cyclic_factors(model)) == cyclic
        assert table_digest(tuple(reduction.first_copies(p)
                                  for p in range(1, 8))) == first
        assert table_digest(tuple(
            (basis.csc_arrays, basis.tags) for basis in
            (symmetry_adapted_basis(model, p) for p in range(1, 5)))) == bases

    @pytest.mark.parametrize("name", ["K80", "JC69"])
    @pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6, 7),
                                       (7, 6, 5, 4, 3, 2, 1),
                                       (4, 2, 6, 1, 7, 3, 5)])
    def test_first_copies_do_not_depend_on_the_order_asked(self, name,
                                                           order):
        # a lower power is cut from the rows of the highest asked so far
        reduction = G.CliffordReduction(builtin_model(name))
        for power in order:
            reduction.first_copies(power)
        assert table_digest(tuple(reduction.first_copies(p)
                                  for p in range(1, 8))) \
            == TABLE_DIGESTS[name][1]

    def test_kept_copy_vectors_are_read_only(self):
        G.CliffordReduction(builtin_model("JC69")).first_copies(3)
        assert G._COPY_VECTORS
        for vectors in G._COPY_VECTORS.values():
            with pytest.raises(ValueError):
                vectors[...] = 0.0

    @pytest.mark.parametrize("name, top, most", [("JC69", 5, 13),
                                                 ("K80", 7, 4)])
    def test_copy_vectors_computed_once_per_input(self, monkeypatch, name,
                                                  top, most):
        computed = []
        orthonormal_copies = G._orthonormal_copies

        def counting(local, weights):
            computed.append(1)
            return orthonormal_copies(local, weights)

        monkeypatch.setattr(G, "_COPY_VECTORS", {})
        monkeypatch.setattr(G, "_orthonormal_copies", counting)
        reduction = G.CliffordReduction(builtin_model(name))
        for power in range(1, top + 1):
            reduction.first_copies(power)
        assert 0 < len(computed) <= most


def jc69_irreps_with(name: str, matrices: np.ndarray) -> list[Irrep]:
    """JC69's irreps with the one called ``name`` given new matrices."""
    return [Irrep(ir.name, ir.dim, matrices) if ir.name == name else ir
            for ir in builtin_model("JC69").irreps]


class TestVerification:
    def test_sign_flip_is_not_a_homomorphism(self):
        model = builtin_model("JC69")
        mats = model.irreps[3].matrices.copy()
        mats[5] = -mats[5]
        with pytest.raises(AssertionError, match="not a homomorphism"):
            EquivariantModel("JC69", model.elements,
                             jc69_irreps_with("std", mats))

    def test_non_orthogonal_irrep(self):
        # conjugating by a shear keeps the homomorphism and the characters
        model = builtin_model("JC69")
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        mats = shear @ model.irreps[2].matrices @ np.linalg.inv(shear)
        with pytest.raises(AssertionError, match="not orthogonal"):
            EquivariantModel("JC69", model.elements,
                             jc69_irreps_with("plane", mats))

    def test_identity_must_map_to_the_identity_matrix(self):
        # negating every matrix keeps orthogonality and integral characters
        mats = -builtin_model("JC69").irreps[2].matrices
        with pytest.raises(AssertionError,
                           match=r"JC69:plane D\(id\) is not the identity"):
            EquivariantModel("JC69", builtin_model("JC69").elements,
                             jc69_irreps_with("plane", mats))

    def test_elements_not_closed(self):
        # the Klein group without (AT)(CG): inverses present, products not
        elements = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)]
        with pytest.raises(AssertionError, match="not closed"):
            EquivariantModel("K81", elements,
                             [Irrep("triv", 1, np.ones((3, 1, 1)))])

    def test_stabiliser_must_act_by_automorphisms(self, monkeypatch):
        # swapping the labels of the first two digits makes S3 move the
        # trivial label, which no automorphism of K81 does
        digit_labels, products = G._label_table(builtin_model("K81"))
        swapped = digit_labels[[1, 0, 2, 3]]
        monkeypatch.setattr(G, "_label_table", lambda _: (swapped, products))
        with pytest.raises(AssertionError, match="moves its patterns off it"):
            G.CliffordReduction(builtin_model("JC69"))

    def test_stabiliser_must_permute_the_one_site_basis(self, monkeypatch):
        real = G.symmetry_adapted_basis(builtin_model("K81"), 1)
        turn = np.eye(4)
        turn[1:3, 1:3] = [[np.cos(0.3), -np.sin(0.3)],
                          [np.sin(0.3), np.cos(0.3)]]
        rotated = SimpleNamespace(tags=real.tags,
                                  dense=lambda: real.dense() @ turn)
        monkeypatch.setattr(G, "symmetry_adapted_basis",
                            lambda model, power: rotated)
        with pytest.raises(AssertionError,
                           match="does not permute the one-site basis"):
            G.CliffordReduction(builtin_model("JC69"))


# ---------------------------------------------------------------------------
# Multiplicity vectors
# ---------------------------------------------------------------------------

class TestMultiplicities:
    @pytest.mark.parametrize("name,m1,m2", [
        ("GMM", (4,), (16,)),
        ("SSM", (2, 2), (8, 8)),
        ("K81", (1, 1, 1, 1), (4, 4, 4, 4)),
        ("K80", (1, 0, 1, 0, 1), (3, 1, 3, 1, 4)),
        ("JC69", (1, 0, 0, 1, 0), (2, 0, 1, 3, 1)),
    ])
    def test_published_values(self, name, m1, m2):
        model = builtin_model(name)
        assert model.multiplicities(1).entries == m1
        assert model.multiplicities(2).entries == m2

    @pytest.mark.parametrize("name,m3", [
        ("GMM", (64,)),
        ("SSM", (32, 32)),
        ("K81", (16, 16, 16, 16)),
        ("K80", (10, 6, 10, 6, 16)),
        ("JC69", (5, 1, 5, 10, 6)),
    ])
    def test_third_power_hand_computed(self, name, m3):
        # worked by hand from the character tables and cubed fixed counts
        assert builtin_model(name).multiplicities(3).entries == m3

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5, 6])
    def test_dimension_accounting(self, name, power):
        model = builtin_model(name)
        m = model.multiplicities(power)
        assert sum(d * e for d, e in zip(model.dims, m.entries)) == 4 ** power

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_monotone_in_power(self, name):
        model = builtin_model(name)
        prev = model.multiplicities(1)
        for power in range(2, 7):
            cur = model.multiplicities(power)
            assert all(a <= b for a, b in zip(prev.entries, cur.entries))
            prev = cur

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_trivial_entry_positive(self, name):
        model = builtin_model(name)
        for power in (1, 2, 3):
            assert model.multiplicities(power).entries[0] >= 1

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            builtin_model("K81").multiplicities(13)
        with pytest.raises(ValueError):
            builtin_model("K81").multiplicities(0)


# ---------------------------------------------------------------------------
# Symmetry-adapted bases
# ---------------------------------------------------------------------------

def orbitwise_basis(model, power):
    """Reference construction of the adapted basis, one G-orbit at a time:
    the projector images and the Gram-Schmidt pass are recomputed for every
    orbit.  Returns the sparse matrix and the (t, r, j) column tags."""
    size = 4 ** power
    mult = model.multiplicities(power)
    if model.order == 1:
        matrix = sparse.identity(size, format="csc")
        tags = tuple((0, 0, j) for j in range(size))
        return matrix, tags

    maps = pattern_maps(model, power)
    canon = maps.min(axis=0)
    reps = np.unique(canon)

    n_irreps = model.n_irreps
    dims = model.dims
    # per (t, r): lists of (global row indices, values) per accepted vector
    collected = [[[] for _ in range(dims[t])] for t in range(n_irreps)]

    coeffs = [ir.matrices[:, :, 0] for ir in model.irreps]  # (|G|, d_t)

    for rep in reps:
        members = np.unique(maps[:, rep])
        m_size = len(members)
        local_maps = np.empty((model.order, m_size), dtype=np.int64)
        for e in range(model.order):
            local_maps[e] = np.searchsorted(members, maps[e, members])
        for t in range(n_irreps):
            d = dims[t]
            scale = d / model.order
            e_ops = np.zeros((d, m_size, m_size))
            for e in range(model.order):
                np.add.at(e_ops, (slice(None), local_maps[e], np.arange(m_size)),
                          scale * coeffs[t][e][:, None])
            accepted = []
            for seed in range(m_size):
                w = e_ops[0, :, seed].copy()
                for _ in range(2):
                    for v in accepted:
                        w -= (v @ w) * v
                norm = np.linalg.norm(w)
                if norm > 1e-6:
                    accepted.append(w / norm)
            for v1 in accepted:
                collected[t][0].append((members, v1))
                for r in range(1, d):
                    vr = e_ops[r] @ v1
                    vr /= np.linalg.norm(vr)
                    collected[t][r].append((members, vr))

    for t in range(n_irreps):
        if len(collected[t][0]) != mult[t]:
            raise AssertionError(
                f"{model.name}: projector image rank {len(collected[t][0])} "
                f"!= multiplicity {mult[t]} for irrep {model.irreps[t].name}")

    rows, data, indptr, tags = [], [], [0], []
    for t in range(n_irreps):
        for r in range(dims[t]):
            for j, (members, vec) in enumerate(collected[t][r]):
                keep = np.abs(vec) > 1e-14
                rows.append(members[keep])
                data.append(vec[keep])
                indptr.append(indptr[-1] + int(keep.sum()))
                tags.append((t, r, j))
    matrix = sparse.csc_matrix(
        (np.concatenate(data), np.concatenate(rows), np.array(indptr)),
        shape=(size, size))
    return matrix, tuple(tags)


def apply_group_element(model, power, element_index, vec):
    maps = pattern_maps(model, power)
    out = np.empty_like(vec)
    out[maps[element_index]] = vec
    return out


class TestBases:
    def test_k81_power_one_is_hadamard(self):
        model = builtin_model("K81")
        basis = symmetry_adapted_basis(model, 1).dense()
        for t, name in enumerate(ir.name for ir in model.irreps):
            col = basis[:, t]
            target = HADAMARD[name] / 2.0
            assert np.allclose(col, target) or np.allclose(col, -target)

    def test_ssm_power_one_vectors(self):
        model = builtin_model("SSM")
        b = symmetry_adapted_basis(model, 1)
        dense = b.dense()
        root2 = np.sqrt(2.0)
        u1, u2 = dense[:, list(b.columns(0, 0))].T
        v1, v2 = dense[:, list(b.columns(1, 0))].T
        assert np.allclose(u1, np.array([1, 0, 0, 1]) / root2)
        assert np.allclose(u2, np.array([0, 1, 1, 0]) / root2)
        assert np.allclose(np.abs(v1), np.array([1, 0, 0, 1]) / root2)
        assert np.allclose(np.abs(v2), np.array([0, 1, 1, 0]) / root2)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_gmm_is_identity(self, power):
        basis = symmetry_adapted_basis(builtin_model("GMM"), power)
        assert np.allclose(basis.dense(), np.eye(4 ** power))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_orthonormal_complete(self, name, power):
        basis = symmetry_adapted_basis(builtin_model(name), power).dense()
        gram = basis.T @ basis
        assert np.abs(gram - np.eye(4 ** power)).max() < 1e-10

    @pytest.mark.parametrize("name", ["SSM", "K81", "K80", "JC69"])
    def test_intertwiner_consistency(self, name):
        # for fixed (t, j) the copies span a G-stable space on which the
        # action matrix reproduces D_t(g) entrywise
        model = builtin_model(name)
        power = 2
        basis = symmetry_adapted_basis(model, power)
        dense = basis.dense()
        mult = model.multiplicities(power)
        for t, d in enumerate(model.dims):
            for j in range(mult[t]):
                copies = np.stack(
                    [dense[:, basis.columns(t, r)[j]] for r in range(d)],
                    axis=1)
                for e in range(model.order):
                    moved = np.stack(
                        [apply_group_element(model, power, e, copies[:, r])
                         for r in range(d)], axis=1)
                    action = copies.T @ moved
                    assert np.abs(action - model.irreps[t].matrices[e]).max() < 1e-10

    def test_column_grouping_matches_multiplicities(self):
        model = builtin_model("JC69")
        basis = symmetry_adapted_basis(model, 2)
        m2 = model.multiplicities(2)
        for t, d in enumerate(model.dims):
            for r in range(d):
                assert len(basis.columns(t, r)) == m2[t]

    def test_deterministic_across_calls(self):
        import edgeinv.groups as G
        model = builtin_model("K80")
        a = symmetry_adapted_basis(model, 2).dense()
        G.symmetry_adapted_basis.cache_clear()
        b = symmetry_adapted_basis(model, 2).dense()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_orbitwise_construction(self, name):
        model = builtin_model(name)
        G.symmetry_adapted_basis.cache_clear()
        try:
            for power in range(1, 7):
                expected, expected_tags = orbitwise_basis(model, power)
                basis = G._build_basis(model, power)
                data, indices, indptr = basis.csc_arrays
                assert np.array_equal(indptr, expected.indptr)
                assert np.array_equal(indices, expected.indices)
                assert np.array_equal(data, expected.data)
                assert basis.tags == expected_tags
        finally:
            G.symmetry_adapted_basis.cache_clear()


class TestCliffordReduction:
    @pytest.mark.parametrize("name", ["GMM", "SSM", "K81"])
    def test_abelian_irreps_are_their_own_labels(self, name):
        model = builtin_model(name)
        reduction = clifford_reduction(model)
        assert reduction.labels is model
        assert reduction.irrep_labels == tuple(range(model.n_irreps))
        assert reduction.first_copies(3) == (None,) * model.n_irreps

    def test_k80_labels_are_read_off_the_matrices(self):
        # B2 restricts to the stabiliser as A2 does, yet sits on the label
        # of A1; E's first state vector is no Klein eigenvector
        model = builtin_model("K80")
        reduction = clifford_reduction(model)
        assert reduction.labels.name == "K81"
        label = dict(zip((ir.name for ir in model.irreps),
                         reduction.irrep_labels))
        assert label["A1"] == label["B2"] == 0
        assert label["A2"] == label["B1"] != 0
        assert label["E"] not in (0, label["A2"])
        e_copy = reduction.first_copies(3)[4]
        assert e_copy is None

    @pytest.mark.parametrize("name", ["K80", "JC69"])
    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
    def test_first_copies_orthonormal_of_multiplicity_size(self, name,
                                                           power):
        model = builtin_model(name)
        reduction = clifford_reduction(model)
        size = 4 ** (power - 1)  # patterns per Klein label
        for t, piece in enumerate(reduction.first_copies(power)):
            m = model.multiplicities(power)[t]
            if piece is None:
                assert m == size
                continue
            index, weight = piece
            dense = np.zeros((size, m))
            np.add.at(dense, (index, np.arange(m)[:, None]), weight)
            assert np.abs(dense.T @ dense - np.eye(m)).max(initial=0.0) < 1e-12


# ---------------------------------------------------------------------------
# Invariant projectors
# ---------------------------------------------------------------------------

class TestInvariantProjector:
    def test_jc69_rank_one_onto_uniform(self):
        proj = invariant_projector(builtin_model("JC69"), 1)
        assert np.allclose(proj, np.full((4, 4), 0.25))
        assert np.linalg.matrix_rank(proj) == 1

    @pytest.mark.parametrize("power", [1, 2])
    def test_gmm_identity(self, power):
        proj = invariant_projector(builtin_model("GMM"), power)
        assert np.allclose(proj, np.eye(4 ** power))

    def test_k81_power_two_rank_four(self):
        proj = invariant_projector(builtin_model("K81"), 2)
        assert np.linalg.matrix_rank(proj) == 4

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_idempotent_symmetric(self, name, power):
        proj = invariant_projector(builtin_model(name), power)
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.abs(proj - proj.T).max() < 1e-12

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_rank_is_trivial_multiplicity(self, name):
        model = builtin_model(name)
        for power in (1, 2):
            proj = invariant_projector(model, power)
            expected = model.multiplicities(power).entries[0]
            assert np.linalg.matrix_rank(proj, tol=1e-9) == expected

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_group_average_agrees_with_projector(self, name):
        rng = np.random.default_rng(7)
        model = builtin_model(name)
        vec = rng.normal(size=16)
        proj = invariant_projector(model, 2)
        assert np.allclose(group_average(vec, model, 2), proj @ vec)


# ---------------------------------------------------------------------------
# Group averaging
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def digit_pattern_maps(model, power):
    """Reference image table: every pattern's base-4 digits are permuted and
    re-weighted, all patterns and all elements at once."""
    size = 4 ** power
    weights = 4 ** np.arange(power - 1, -1, -1, dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    digits = (idx[:, None] // weights[None, :]) % 4
    maps = np.empty((model.order, size), dtype=np.int64)
    for e, g in enumerate(model.elements):
        maps[e] = np.array(g, dtype=np.int64)[digits] @ weights
    return maps


def table_average(values, model, power):
    """Reference average through the full image table, in element order."""
    acc = np.zeros(len(values))
    for row in digit_pattern_maps(model, power):
        acc += values[row]
    return acc / model.order


class TestGroupAverage:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_pattern_maps_match_digit_table(self, name):
        model = builtin_model(name)
        for power in range(0, 7):
            maps = pattern_maps(model, power)
            assert maps.dtype == np.int64
            assert np.array_equal(maps, digit_pattern_maps(model, power))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bit_identical_to_table_average(self, name):
        # the trivial group returns its input; elsewhere the cyclic factors
        # reorder the additions, which moves the result by rounding only
        model = builtin_model(name)
        rng = np.random.default_rng(3)
        for power in range(0, 7):
            values = rng.normal(size=4 ** power)
            got = group_average(values, model, power)
            if model.order == 1:
                assert np.array_equal(got, values)
            else:
                gap = np.abs(got - table_average(values, model, power)).max()
                assert gap <= 4 * EPS * np.abs(values).max()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_cyclic_factors_cover_the_group_once(self, name):
        model = builtin_model(name)
        factors = G._cyclic_factors(model)
        assert np.prod([len(f) for f in factors]) == model.order
        assert all(len(f) == 2 for f in factors[1:])
        products = set()
        for choice in itertools.product(*factors):
            g = choice[0]
            for c in choice[1:]:
                g = G._compose(g, c)
            products.add(g)
        assert products == set(model.elements)

    @pytest.mark.parametrize("name, gathers", [
        ("GMM", 0), ("SSM", 1), ("K81", 2), ("K80", 3), ("JC69", 5)])
    def test_gather_count(self, name, gathers):
        factors = G._cyclic_factors(builtin_model(name))
        assert sum(len(f) - 1 for f in factors) == gathers

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("power", [1, 4, 8])
    def test_invariant_and_idempotent(self, name, power):
        # power 8 spans several gather blocks
        model = builtin_model(name)
        values = np.random.default_rng(5).normal(size=4 ** power)
        avg = group_average(values, model, power)
        tol = 4 * EPS * np.abs(avg).max()
        for row in pattern_maps(model, power):
            assert np.abs(avg[row] - avg).max() <= tol
        assert np.abs(group_average(avg, model, power) - avg).max() <= tol

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("power", [0, 3, 8, 9])
    def test_orbit_walk_is_the_average_bit_for_bit(self, name, power):
        # one orbit of high-digit blocks at a time, in a buffer that the
        # next orbit writes over: every block of the input once, beside
        # group_average's values for it
        model = builtin_model(name)
        values = np.random.default_rng(power).normal(size=4 ** power)
        got = np.full_like(values, np.nan)
        for block, average in orbit_averages(values, model, power):
            start = (block.ctypes.data - values.ctypes.data) // 8
            assert np.shares_memory(block, values)
            assert np.isnan(got[start:start + len(block)]).all()
            got[start:start + len(block)] = average
        assert np.array_equal(got, group_average(values, model, power))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            group_average(np.zeros(15), builtin_model("K81"), 2)
        with pytest.raises(ValueError):
            next(orbit_averages(np.zeros(15), builtin_model("K81"), 2))

    @pytest.mark.parametrize("name", ["K81", "JC69"])
    def test_integer_input_averages_as_float(self, name):
        model = builtin_model(name)
        values = np.arange(64)
        got = group_average(values, model, 3)
        assert np.array_equal(got, group_average(values.astype(float),
                                                 model, 3))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_peak_memory_is_a_few_tensors(self, name):
        # the full JC69 image table alone would be 24 tensors' worth
        model = builtin_model(name)
        values = np.random.default_rng(0).normal(size=4 ** 8)
        tracemalloc.start()
        try:
            group_average(values, model, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * 4 ** 8


NONTRIVIAL = MODEL_NAMES[1:]


class TestChainWalk:
    """One orbit walk of the largest of nested groups: its factors are
    ordered so that their running products are the smaller groups."""

    def test_chain_sorted_once_each_without_the_trivial_group(self):
        models = [builtin_model(m) for m in ("JC69", "gmm", "K81", "k81")]
        assert G.model_chain(models) == (builtin_model("K81"),
                                         builtin_model("JC69"))
        assert G.model_chain([builtin_model("GMM")]) == ()

    @pytest.mark.parametrize("other", ["SSM", "K81", "K80"])
    def test_models_that_do_not_nest_rejected(self, other):
        # K80 holds the transpositions (AG) and (CT), not (AC); S4 holds all
        models = [transposition_group(), builtin_model(other)]
        with pytest.raises(ValueError, match="do not nest"):
            G.model_chain(models)
        assert G.model_chain([models[0], builtin_model("JC69")]) == (
            models[0], builtin_model("JC69"))

    @pytest.mark.parametrize("names", [
        names for size in range(1, 5)
        for names in itertools.combinations(NONTRIVIAL, size)])
    def test_chain_factors_make_each_group_once(self, names):
        chain = G.model_chain(builtin_model(m) for m in names)
        factors, ends = G._chain_factors(chain)
        assert len(ends) == len(chain) and ends[-1] == len(factors)
        for factor in factors[1:]:  # {1, c} of order 2, or {1, c, c^2}
            c = factor[1]
            assert factor in ((G._IDENTITY, c),
                              (G._IDENTITY, c, G._compose(c, c)))
            assert G._compose(c, factor[-1]) == G._IDENTITY
        for model, end in zip(chain, ends):
            products = []
            for choice in itertools.product(*factors[:end]):
                g = choice[0]
                for c in choice[1:]:
                    g = G._compose(g, c)
                products.append(g)
            assert sorted(products) == sorted(model.elements)
        if len(chain) == 1:
            assert factors == G._cyclic_factors(chain[0])

    def test_chain_of_all_four(self):
        # SSM's involution, then one more for K81 and for K80, then JC69's
        # order-3 factor: 1 + 1 + 1 + 2 gathers, as JC69 alone takes 5
        factors, ends = G._chain_factors(G.model_chain(
            builtin_model(m) for m in NONTRIVIAL))
        assert [len(f) for f in factors] == [2, 2, 2, 3]
        assert ends == (1, 2, 3, 4)

    @pytest.mark.parametrize("power, low", [(2, 2), (3, 1), (5, 3), (6, 4)])
    @pytest.mark.parametrize("kind", ["integer", "random"])
    def test_order_three_step_matches_a_copy(self, power, low, kind):
        # (CGT) fixes A, so the high patterns of A alone are fixed blocks
        # and the rest lie in 3-cycles; the copy-based sum reads only the
        # old blocks.  Integers add exactly; random floats move by the
        # order of the three additions only
        c = (0, 2, 3, 1)
        cycle = np.array([c, G._compose(c, c)])
        rows = G._element_row(cycle, low, np.empty((2, 4 ** low), np.int64))
        partners = G._element_row(cycle, power - low,
                                  np.empty((2, 4 ** (power - low)), np.int64))
        rng = np.random.default_rng(power)
        values = (rng.integers(0, 1000, 4 ** power).astype(float)
                  if kind == "integer" else rng.normal(size=4 ** power))
        blocks = values.reshape(-1, 4 ** low)
        want = (blocks + np.take(blocks[partners[0]], rows[0], axis=1)
                + np.take(blocks[partners[1]], rows[1], axis=1))
        fixed = partners[0] == np.arange(len(blocks))
        assert fixed.any() and (power == low or not fixed.all())
        acc = blocks.copy()
        G._sum_images(acc, blocks, (), [(rows, partners)],
                      np.empty((2, 4 ** low)))
        if kind == "integer":
            assert np.array_equal(acc, want)
        else:
            assert np.array_equal(acc[fixed], want[fixed])
            assert np.abs(acc - want).max() <= 4 * EPS * np.abs(want).max()
        assert np.array_equal(blocks.reshape(-1), values)

    @pytest.mark.parametrize("names", [("K81", "JC69"), ("SSM", "K80"),
                                       ("SSM", "K81", "K80", "JC69")])
    @pytest.mark.parametrize("power", [0, 3, 8, 9])
    def test_each_stage_is_its_groups_average(self, names, power):
        # every block once per group, smallest group first within an orbit,
        # beside that group's average to 1e-15 of the largest entry
        chain = G.model_chain(builtin_model(m) for m in names)
        values = np.random.default_rng(power).normal(size=4 ** power)
        got = np.full((len(chain), len(values)), np.nan)
        for k, block, average in G.orbit_stages(values, chain, power):
            start = (block.ctypes.data - values.ctypes.data) // 8
            assert np.isnan(got[k, start:start + len(block)]).all()
            got[k, start:start + len(block)] = average
        for k, model in enumerate(chain):
            want = group_average(values, model, power)
            assert np.abs(got[k] - want).max() <= 4 * EPS * np.abs(
                values).max()


# ---------------------------------------------------------------------------
# Expected rank vectors
# ---------------------------------------------------------------------------

class TestExpectedRank:
    def test_k81_on_its_split(self):
        model = builtin_model("K81")
        got = expected_rank_vector(model, quartet12(), Bipartition({1, 2}, 4))
        assert got.entries == (1, 1, 1, 1)

    def test_k81_off_split(self):
        model = builtin_model("K81")
        got = expected_rank_vector(model, quartet12(), Bipartition({1, 3}, 4))
        assert got.entries == (4, 4, 4, 4)

    def test_gmm_off_split(self):
        model = builtin_model("GMM")
        got = expected_rank_vector(model, quartet12(), Bipartition({1, 4}, 4))
        assert got.entries == (16,)
