"""Test-only helpers: tensors, relabellings and dense operators that the
tests build their fixtures and oracles from, and the package does not use."""

import numpy as np

from edgeinv.groups import EquivariantModel, pattern_maps, \
    symmetry_adapted_basis
from edgeinv.tensors import PatternTensor, ThinFlattening

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


def identity_link(label_a: int, label_b: int, k: int = 4) -> PatternTensor:
    """The two-position tensor pairing equal states, sum_b b (x) b."""
    values = np.eye(k).reshape(-1)
    return PatternTensor(values, (label_a, label_b), k)


def permute_labels(psi: PatternTensor, mapping: dict[int, int]) -> PatternTensor:
    """Rename positions through a bijection and restore canonical label order."""
    new_labels = tuple(mapping.get(l, l) for l in psi.labels)
    renamed = PatternTensor(psi.values, new_labels, psi.k, psi.stochastic)
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
