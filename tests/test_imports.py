"""No subcommand imports scipy or numpy.ma.

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
    src = str(Path(ei.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHECK, json.dumps(commands)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
