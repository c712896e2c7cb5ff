"""Tree topology decisions from site-pattern tensors via equivariant
flattening ranks: group engine, thin flattenings, split scores, simulation,
and reconstruction."""

from .groups import (
    EquivariantModel,
    MultiplicityVector,
    SymmetryAdaptedBasis,
    builtin_model,
    expected_rank_vector,
    symmetry_adapted_basis,
)
from .reconstruct import (
    ReconstructionResult,
    empirical_tensor,
    reconstruct_by_splits,
    reconstruct_exhaustive,
)
from .scores import (
    GeneratorCatalog,
    SplitScore,
    edge_invariant_test,
    evaluate_generators,
    generator_catalog,
    genericity_check,
    model_fit_score,
    score_splits,
    split_score,
)
from .simulate import (
    Alignment,
    EvolutionaryPresentation,
    joint_distribution,
    random_presentation,
    read_fasta,
    sample_alignment,
    write_fasta,
)
from .tensors import (
    PatternTensor,
    RankVector,
    character_flattening,
    save_tensor,
)
from .trees import (
    Bipartition,
    TreeTopology,
    edge_splits,
    from_newick,
    min_edge_cut,
    splits_compatible,
    to_newick,
    tree_from_splits,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "Bipartition",
    "EquivariantModel",
    "EvolutionaryPresentation",
    "GeneratorCatalog",
    "MultiplicityVector",
    "PatternTensor",
    "RankVector",
    "ReconstructionResult",
    "SplitScore",
    "SymmetryAdaptedBasis",
    "TreeTopology",
    "builtin_model",
    "character_flattening",
    "edge_invariant_test",
    "edge_splits",
    "empirical_tensor",
    "evaluate_generators",
    "expected_rank_vector",
    "from_newick",
    "generator_catalog",
    "genericity_check",
    "joint_distribution",
    "min_edge_cut",
    "model_fit_score",
    "random_presentation",
    "read_fasta",
    "reconstruct_by_splits",
    "reconstruct_exhaustive",
    "sample_alignment",
    "save_tensor",
    "score_splits",
    "splits_compatible",
    "split_score",
    "symmetry_adapted_basis",
    "to_newick",
    "tree_from_splits",
    "write_fasta",
]
