"""The package's public names, no subcommand imports scipy or numpy.ma, and
the package imports no dataclasses.

The package depends on numpy alone; only the tests' sparse-basis oracle
(``helpers.thin_flatten``) uses scipy.  Some forms of ``np.unique`` and
``np.median`` import numpy.ma lazily, which costs 15-25 ms inside a solve.
The commands run in a fresh interpreter, since this one has both loaded
already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import edgeinv as ei

CHECK = """
import json, sys
import edgeinv
from edgeinv.cli import main
assert "scipy" not in sys.modules, "import edgeinv"
for argv in json.loads(sys.argv[1]):
    assert main(argv) in (0, 2), argv
    assert "scipy" not in sys.modules, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_public_names_are_pinned():
    # a new or removed public name shows up here as a change to this list
    assert ei.__all__ == [
        "Alignment", "Bipartition", "EquivariantModel",
        "EvolutionaryPresentation", "GeneratorCatalog", "MultiplicityVector",
        "PatternTensor", "RankVector", "ReconstructionResult", "SplitScore",
        "SymmetryAdaptedBasis", "TreeTopology", "builtin_model",
        "character_flattening", "edge_invariant_test", "edge_splits",
        "empirical_tensor", "evaluate_generators", "expected_rank_vector",
        "from_newick", "generator_catalog", "genericity_check",
        "joint_distribution", "min_edge_cut", "model_fit_score",
        "random_presentation", "read_fasta", "reconstruct_by_splits",
        "reconstruct_exhaustive", "sample_alignment", "save_tensor",
        "score_splits", "splits_compatible", "split_score",
        "symmetry_adapted_basis", "to_newick", "tree_from_splits",
        "write_fasta",
    ]
    assert all(hasattr(ei, name) for name in ei.__all__)


def _simulated(model_name: str, seed: int):
    """An exact 6-leaf caterpillar tensor and its taxon names."""
    tree, names = ei.from_newick("(((((t1,t2),t3),t4),t5),t6);")
    model = ei.builtin_model(model_name)
    psi = ei.joint_distribution(ei.random_presentation(model, tree, seed))
    return psi, [names[i] for i in range(1, 7)]


def test_benchmark_commands_import_no_scipy(tmp_path):
    paths = {}
    for name in ("JC69", "K80", "K81"):
        psi, _ = _simulated(name, 1)
        paths[name] = tmp_path / f"{name}.eqpt"
        ei.save_tensor(psi, paths[name])
    psi, taxa = _simulated("K81", 2)
    fasta = tmp_path / "k81.fasta"
    fasta.write_text(ei.write_fasta(ei.sample_alignment(psi, 2000, 2,
                                                        taxa=taxa)))
    # an N column, so the parser's dropping path runs
    dropped = tmp_path / "k81n.fasta"
    dropped.write_text(re.sub("\n[ACGT]", "\nN", fasta.read_text(), 1))
    commands = [
        ["reconstruct", "--model", "JC69", "--input", str(paths["JC69"]),
         "--method", "exhaustive"],
        ["reconstruct", "--model", "K81", "--input", str(fasta),
         "--method", "splits"],
        ["score", "--model", "K80", "--input", str(paths["K80"]),
         "--all-splits"],
        ["score", "--model", "K81", "--input", str(dropped), "--ambiguous",
         "drop", "--all-splits"],
        ["fit", "--models", "JC69,K81", "--input", str(paths["K81"])],
        ["model-info", "--model", "JC69", "--power", "3", "--basis"],
        ["simulate", "--model", "K80", "--tree", "((a,b),(c,d));",
         "--seed", "3", "--sites", "500", "--out", str(tmp_path / "sim.fa")],
    ]
    proc = _fresh(CHECK, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter that imports this edgeinv."""
    src = str(Path(ei.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_import_loads_no_dataclasses():
    # the value classes are records (edgeinv.records): the dataclass
    # decorator compiles each class's methods at import, ~15 ms in all
    proc = _fresh("import sys, edgeinv, edgeinv.cli\n"
                  "assert 'dataclasses' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
