"""CLI surface tests: subcommands, formats, exit codes."""

import argparse
import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from edgeinv import cli
from edgeinv.cli import build_parser, main
from edgeinv.reconstruct import empirical_tensor
from edgeinv.simulate import read_fasta
from edgeinv.tensors import save_tensor

QUARTET_NEWICK = "((1,2),(3,4));"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


INPUT_OPTIONS = ["--input", "--format", "--ambiguous"]


def test_options_are_pinned():
    # a new option or flag shows up here as a change to this list
    (commands,) = (a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
               for name, p in commands.items()}
    assert options == {
        "model-info": ["--model", "--power", "--basis"],
        "simulate": ["--model", "--tree", "--seed", "--sites",
                     "--concentration", "--out"],
        "score": ["--model", *INPUT_OPTIONS, "--split", "--all-splits"],
        "reconstruct": ["--model", *INPUT_OPTIONS, "--method", "--tol"],
        "fit": [*INPUT_OPTIONS, "--models"],
    }


class TestModelInfo:
    def test_character_table_and_multiplicities(self, capsys):
        code, out, _ = run(capsys, "model-info", "--model", "JC69",
                           "--power", "2")
        assert code == 0
        assert "group order 24" in out
        assert "m(1) = (1, 0, 0, 1, 0)" in out
        assert "m(2) = (2, 0, 1, 3, 1)" in out

    def test_basis_rendering_exact_form(self, capsys):
        code, out, _ = run(capsys, "model-info", "--model", "K81",
                           "--power", "1", "--basis")
        assert code == 0
        assert "(A + C + G + T) / sqrt(4)" in out
        assert "sqrt(4)" in out

    def test_k80_chi_row(self, capsys):
        code, out, _ = run(capsys, "model-info", "--model", "K80")
        assert code == 0
        assert "m(1) = (1, 0, 1, 0, 1)" in out

    @pytest.mark.parametrize("power", ["13", "0"])
    @pytest.mark.parametrize("basis", [[], ["--basis"]],
                             ids=["tables", "basis"])
    def test_power_outside_guard_prints_nothing(self, capsys, power, basis):
        code, out, err = run(capsys, "model-info", "--model", "K81",
                             "--power", power, *basis)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "outside guard" in err

    @pytest.mark.parametrize("name, digest", [
        ("GMM", "80c7cf3eb0179194b05772a7afbd44f05fbdbc99f3e443f821b4da10460b45fc"),
        ("SSM", "9edc4a459bc17be0426f9dec0d3c26ee975982946af97b360d4becbc9e904ad0"),
        ("K81", "7d7e89fbf24df27d06bcade105385530c10b7c19a7d36ff1c6ee33a56f46d2b7"),
        ("K80", "0d054ef3beb3f823e945e5b6e905d3631753eee97e63551a19f7b8aa417d8fd4"),
        ("JC69", "b5acc51f6b5bb061dc5cc71cca56859b188d97d57aa56c0f02c9b2db1641aea9"),
    ])
    def test_basis_output_is_pinned(self, capsys, name, digest):
        # sha256 of the output rendered from the dense basis matrix
        code, out, _ = run(capsys, "model-info", "--model", name,
                           "--power", "3", "--basis")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_basis_vector_from_sparse_entries(self):
        names = ["A", "C", "G"]
        exact = cli._render_basis_vector(np.array([2, 0]),
                                         np.array([-0.5, 0.5]), names)
        assert exact == "(A - G) / sqrt(2)"
        inexact = cli._render_basis_vector(np.array([2, 0]),
                                           np.array([0.3, 0.7]), names)
        assert inexact == "[ 0.700000,  0.000000,  0.300000]"

    def test_basis_output_memory_is_bounded(self, capsys):
        # the dense 4^6 x 4^6 basis matrix alone would be 128 MiB
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "model-info", "--model", "JC69",
                               "--power", "6", "--basis")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.count("\n  [") == 4 ** 6
        assert peak < 32 * 2 ** 20


class TestSimulate:
    def test_tensor_json_stdout(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "K81",
                           "--tree", QUARTET_NEWICK, "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["stochastic"] is True
        assert abs(sum(v for _, v in doc["entries"]) - 1.0) < 1e-9

    def test_binary_container_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "sim.eqpt"
        code, _, _ = run(capsys, "simulate", "--model", "GMM",
                         "--tree", QUARTET_NEWICK, "--seed", "3",
                         "--out", str(out_path))
        assert code == 0
        from edgeinv.tensors import tensor_from_bytes
        psi = tensor_from_bytes(out_path.read_bytes())
        assert psi.n == 4 and psi.stochastic

    def test_fasta_output(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "JC69",
                           "--tree", "((human,chimp),(mouse,rat));",
                           "--seed", "1", "--sites", "50")
        assert code == 0
        assert out.startswith(">")
        assert out.count(">") == 4
        assert ">chimp" in out

    @pytest.mark.parametrize("newick", ["((a,b),(c,d);", "(a,b", ";", ""])
    def test_truncated_newick_exit_one(self, capsys, newick):
        code, _, err = run(capsys, "simulate", "--model", "K81",
                           "--tree", newick, "--seed", "1")
        assert code == 1
        assert err.startswith("error:")

    def test_deterministic(self, capsys):
        a = run(capsys, "simulate", "--model", "K80", "--tree",
                QUARTET_NEWICK, "--seed", "5")
        b = run(capsys, "simulate", "--model", "K80", "--tree",
                QUARTET_NEWICK, "--seed", "5")
        assert a == b


class TestScore:
    @pytest.fixture()
    def tensor_path(self, capsys, tmp_path):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "11", "--out", str(path))
        return path

    def test_all_splits_report(self, capsys, tensor_path):
        code, out, _ = run(capsys, "score", "--model", "K81",
                           "--input", str(tensor_path), "--all-splits")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "K81"
        assert len(doc["bipartitions"]) == 3
        winner = min(doc["bipartitions"], key=lambda r: r["score"])
        assert winner["split"] == "1,2|3,4"
        assert winner["achieved_rank"] == [1, 1, 1, 1]

    def test_single_split(self, capsys, tensor_path):
        code, out, _ = run(capsys, "score", "--model", "K81",
                           "--input", str(tensor_path),
                           "--split", "1,3|2,4")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["bipartitions"]) == 1
        assert doc["bipartitions"][0]["score"] > 0.01

    @pytest.mark.parametrize("ambiguous", ["error", "drop"])
    def test_fasta_scores_as_its_empirical_tensor(self, capsys, tmp_path,
                                                  ambiguous):
        fasta = tmp_path / "a.fasta"
        run(capsys, "simulate", "--model", "K81", "--tree",
            "(((1,2),3),(4,5));", "--seed", "3", "--sites", "3000",
            "--out", str(fasta))
        if ambiguous == "drop":  # an N in the first column of taxon 1
            fasta.write_text(re.sub("\n[ACGT]", "\nN", fasta.read_text(), 1))
        tensor = tmp_path / "a.eqpt"
        save_tensor(empirical_tensor(read_fasta(fasta.read_text(),
                                                ambiguous)), tensor)
        outs = [run(capsys, "score", "--model", "K81", "--input", str(path),
                    "--ambiguous", ambiguous, "--all-splits")
                for path in (fasta, tensor)]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and len(json.loads(outs[0][1])
                                       ["bipartitions"]) == 10


class TestReconstruct:
    def test_exact_tensor_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "JC69", "--tree", QUARTET_NEWICK,
            "--seed", "2", "--out", str(path))
        code, out, _ = run(capsys, "reconstruct", "--model", "JC69",
                           "--input", str(path), "--tol", "1e-8")
        assert code == 0
        doc = json.loads(out)
        assert doc["tree"] is not None
        assert doc["warnings"] == []
        assert doc["method"] == "exhaustive"

    @pytest.mark.parametrize("method", ["exhaustive", "splits"])
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exit_one(self, capsys, tmp_path, method, tol):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "2", "--out", str(path))
        code, out, err = run(capsys, "reconstruct", "--model", "K81",
                             "--input", str(path), "--method", method,
                             "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_fasta_input_via_splits(self, capsys, tmp_path):
        fasta = tmp_path / "a.fasta"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "4", "--sites", "20000", "--out", str(fasta))
        code, out, _ = run(capsys, "reconstruct", "--model", "K81",
                           "--input", str(fasta), "--method", "splits")
        doc = json.loads(out)
        assert doc["tree"] is not None
        assert code in (0, 2)

    def test_ambiguous_tensor_warns_exit_two(self, capsys, tmp_path):
        # the all-constant-pattern alignment is compatible with every
        # topology, so the answer must carry warnings
        fasta = tmp_path / "flat.fasta"
        fasta.write_text(">a\nAAAA\n>b\nAAAA\n>c\nAAAA\n>d\nAAAA\n")
        code, out, _ = run(capsys, "reconstruct", "--model", "GMM",
                           "--input", str(fasta), "--tol", "1e-8")
        assert code == 2
        doc = json.loads(out)
        assert "no-unique-pass" in doc["warnings"]

    def test_bad_input_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code, _, err = run(capsys, "reconstruct", "--model", "GMM",
                           "--input", str(bad))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("name, data", [
        ("no_entries.json", b'{"n": 4, "k": 4, "states": "ACGT"}'),
        ("bad_symbol.json", b'{"n": 2, "entries": [["AX", 1.0]]}'),
        ("short.eqpt", b"EQPT\x01\x00\x04"),
        ("stochastic.json",
         b'{"n": 4, "entries": [["AAAA", 1.0]], "stochastic": "no"}'),
    ])
    def test_malformed_input_exit_one(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, _, err = run(capsys, "reconstruct", "--model", "K81",
                           "--input", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_empty_fasta_taxon_name_exit_one(self, capsys, tmp_path):
        path = tmp_path / "noname.fasta"
        path.write_text(">\nACGT\n>b\nACGT\n>c\nACGA\n>d\nACGC\n")
        code, _, err = run(capsys, "reconstruct", "--model", "K81",
                           "--input", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "empty taxon name" in err

    def test_more_fasta_taxa_than_the_dense_cap_exit_one(self, capsys,
                                                         tmp_path):
        path = tmp_path / "t13.fasta"
        path.write_text("".join(f">t{i}\nACGTACGT\n" for i in range(13)))
        code, out, err = run(capsys, "reconstruct", "--model", "K81",
                             "--input", str(path), "--method", "splits")
        assert code == 1
        assert out == ""
        assert err == "error: 13 positions outside the dense range 0..12\n"

    def test_three_state_container_exit_one(self, capsys, tmp_path):
        # a well-formed header with k=3 and its 3^4 entries
        path = tmp_path / "k3.eqpt"
        path.write_bytes(b"EQPT" + struct.pack("<HHHH", 1, 4, 3, 0)
                         + bytes(8 * 81))
        code, _, err = run(capsys, "score", "--model", "K81",
                           "--input", str(path), "--all-splits")
        assert code == 1
        assert err.startswith("error:")


class TestFit:
    def test_nested_scores(self, capsys, tmp_path):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K80", "--tree", QUARTET_NEWICK,
            "--seed", "6", "--out", str(path))
        code, out, _ = run(capsys, "fit", "--input", str(path),
                           "--models", "JC69,K80,K81,GMM")
        assert code == 0
        doc = json.loads(out)
        scores = doc["fit_scores"]
        assert scores["K80"] <= 1e-12
        assert scores["K81"] <= 1e-12
        assert scores["GMM"] == 0.0
        assert scores["JC69"] > scores["K80"]

    @pytest.mark.parametrize("models", [",", " , ,", ""])
    def test_empty_model_list_is_an_error(self, capsys, tmp_path, models):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "6", "--out", str(path))
        code, out, err = run(capsys, "fit", "--input", str(path),
                             "--models", models)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_each_model_scored_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "6", "--out", str(path))
        scored = []
        real = cli.model_fit_score
        monkeypatch.setattr(cli, "model_fit_score", lambda psi, model: (
            scored.append(model.name) or real(psi, model)))
        code, out, _ = run(capsys, "fit", "--input", str(path),
                           "--models", "K81,jc69,K81, JC69,GMM")
        assert code == 0
        assert scored == ["K81", "JC69", "GMM"]
        assert list(json.loads(out)["fit_scores"]) == ["K81", "JC69", "GMM"]

    @pytest.mark.parametrize("command", ["fit", "score", "reconstruct"])
    def test_no_average_is_not_a_fit_option(self, capsys, tmp_path, command):
        models = "--models" if command == "fit" else "--model"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(tmp_path / "t.eqpt"), models,
                  "K81", "--no-average"])
        assert exc.value.code == 2
        assert "--no-average" in capsys.readouterr().err

    def test_zero_leaf_container(self, capsys, tmp_path):
        # a header with n=0 and its single entry
        path = tmp_path / "zero.eqpt"
        path.write_bytes(b"EQPT" + struct.pack("<HHHH", 1, 0, 4, 0)
                         + struct.pack("<d", 1.0))
        code, out, _ = run(capsys, "fit", "--input", str(path),
                           "--models", "JC69,K81,K80,SSM,GMM")
        assert code == 0
        assert out == json.dumps({
            "n": 0,
            "fit_scores": {"JC69": 0.0, "K81": 0.0, "K80": 0.0, "SSM": 0.0,
                           "GMM": 0.0}}, indent=2) + "\n"
