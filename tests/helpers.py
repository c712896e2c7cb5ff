"""Test-only helpers: tensors, relabellings, dense operators, the plain
flattening rank, presentation JSON round-trips, and the loop forms of the
FASTA column count and the character transform, that the tests build their
fixtures and oracles from, and the package does not use."""

import json
from typing import Mapping, Optional

import numpy as np

from edgeinv.groups import K, EquivariantModel, builtin_model, \
    pattern_maps, symmetry_adapted_basis
from edgeinv.simulate import EvolutionaryPresentation
from edgeinv.tensors import PatternTensor, ThinFlattening
from edgeinv.trees import from_newick, to_newick

MAX_DENSE_POWER = 6     # dense k^l x k^l projector guard


def reassemble_flattening(tf: ThinFlattening,
                          model: EquivariantModel) -> np.ndarray:
    """Inverse of thin_flatten for invariant input: replicate each block over
    its copies, transform back to the pattern bases."""
    l1, l2 = tf.row_mult.power, tf.col_mult.power
    basis1 = symmetry_adapted_basis(model, l1)
    basis2 = symmetry_adapted_basis(model, l2)
    size1, size2 = 4 ** l1, 4 ** l2
    transformed = np.zeros((size1, size2))
    for t, d in enumerate(model.dims):
        for r in range(d):
            rows = basis1.columns(t, r)
            cols = basis2.columns(t, r)
            transformed[rows.start:rows.stop, cols.start:cols.stop] = tf.blocks[t]
    half = basis2.matrix @ transformed.T
    return np.asarray((basis1.matrix @ half.T))


def identity_link(label_a: int, label_b: int) -> PatternTensor:
    """The two-position tensor pairing equal states, sum_b b (x) b."""
    return PatternTensor(np.eye(K).reshape(-1), (label_a, label_b))


def permute_labels(psi: PatternTensor, mapping: dict[int, int]) -> PatternTensor:
    """Rename positions through a bijection and restore canonical label order."""
    new_labels = tuple(mapping.get(l, l) for l in psi.labels)
    renamed = PatternTensor(psi.values, new_labels, psi.stochastic)
    return renamed.with_canonical_labels()


def invariant_projector(model: EquivariantModel, power: int) -> np.ndarray:
    """Dense orthogonal projector onto the trivial isotypic component of the
    l-th tensor power; rank equals the trivial-character multiplicity."""
    if not 1 <= power <= MAX_DENSE_POWER:
        raise ValueError(f"dense projector guarded to power <= {MAX_DENSE_POWER}")
    size = 4 ** power
    maps = pattern_maps(model.name, power)
    proj = np.zeros((size, size))
    cols = np.arange(size)
    for row in maps:
        proj[row, cols] += 1.0 / model.order
    return proj


def flattening_rank(mat: np.ndarray, tol: float = 1e-7) -> int:
    """Numerical rank of a plain flattening under the thin-rank rule:
    singular values above tol times the largest count."""
    spectrum = np.linalg.svd(mat, compute_uv=False)
    if spectrum.size == 0 or spectrum[0] == 0.0:
        return 0
    return int((spectrum > tol * spectrum[0]).sum())


def presentation_to_json(pres: EvolutionaryPresentation,
                         names: Optional[Mapping[int, str]] = None) -> str:
    return json.dumps({
        "model": pres.model.name,
        "tree": to_newick(pres.tree, names),
        "root": pres.root,
        "stochastic": pres.stochastic,
        "root_distribution": pres.root_distribution.tolist(),
        "edges": [{"parent": u, "child": v, "matrix": m.tolist()}
                  for (u, v), m in sorted(pres.edge_matrices.items())],
    })


def presentation_from_json(text: str) -> EvolutionaryPresentation:
    doc = json.loads(text)
    tree, _ = from_newick(doc["tree"])
    matrices = {(e["parent"], e["child"]): np.array(e["matrix"], dtype=float)
                for e in doc["edges"]}
    pres = EvolutionaryPresentation(
        tree, doc["root"], matrices,
        np.array(doc["root_distribution"], dtype=float),
        builtin_model(doc["model"]), doc.get("stochastic", True))
    pres.validate()
    return pres


def fasta_column_counts(seqs: list[str], ambiguous: str) -> dict[str, int]:
    """Pattern counts of equal-length upper-case sequences, one column at a
    time: the oracle of ``read_fasta``'s array count.  Raises ValueError with
    ``read_fasta``'s messages."""
    counts: dict[str, int] = {}
    for col, pattern in enumerate(map("".join, zip(*seqs)), start=1):
        if pattern in counts:
            counts[pattern] += 1
        elif not pattern.strip("ACGT"):  # every symbol is one of ACGT
            counts[pattern] = 1
        elif ambiguous == "error":
            raise ValueError(f"non-ACGT symbol in column {col}")
    if not counts:
        raise ValueError("no usable columns remain")
    return counts


def character_transform_loop(psi: PatternTensor,
                             model: EquivariantModel) -> np.ndarray:
    """``CharacterTransform.coeffs`` by n matrix products, each into a fresh
    array: the oracle of the two-buffer transform."""
    matrix = symmetry_adapted_basis(model, 1).dense()
    coeffs = psi.values
    for _ in range(psi.n):
        coeffs = coeffs.reshape(K, -1).T @ matrix
    return coeffs.reshape(-1)
