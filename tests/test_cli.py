"""CLI surface tests: subcommands, formats, exit codes."""

import argparse
import hashlib
import itertools
import json
import os
import re
import struct
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from edgeinv import cli, groups, scores
from edgeinv.cli import build_parser, main
from edgeinv.reconstruct import empirical_tensor
from edgeinv.simulate import read_fasta
from edgeinv.tensors import PatternTensor, save_tensor
from helpers import transposition_group

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


# argv, exit status, stdout and stderr of the help and usage-error texts,
# as printed at 80 columns by the parser that built every subcommand
CLI_TEXTS = json.loads(Path(__file__).with_name("cli_texts.json").read_text())


@pytest.mark.parametrize("case", CLI_TEXTS,
                         ids=lambda case: "_".join(case["argv"]) or "none")
def test_help_and_usage_texts_are_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to it
    with pytest.raises(SystemExit) as stop:
        main(case["argv"])
    out = capsys.readouterr()
    assert (stop.value.code, out.out, out.err) == (
        case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv, built", [
    (["model-info", "--model", "K81", "--power", "1"], ["model-info"]),
    (["fit", "--help"], ["fit"]),
    (["--help"], list(cli._SUBCOMMANDS)),
    (["bogus"], list(cli._SUBCOMMANDS)),
    ([], list(cli._SUBCOMMANDS)),
])
def test_a_call_builds_the_subparser_it_runs(capsys, monkeypatch, argv,
                                             built):
    calls = []
    for name, add in cli._SUBCOMMANDS.items():
        def recorded(sub, name=name, add=add):
            calls.append(name)
            add(sub)
        monkeypatch.setitem(cli._SUBCOMMANDS, name, recorded)
    try:
        main(argv)
    except SystemExit:
        pass
    assert calls == built


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
        from edgeinv.tensors import read_container
        with open(out_path, "rb") as fh:
            psi = read_container(fh)
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

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_concentration_not_positive_exit_one(self, capsys, value):
        code, out, err = run(capsys, "simulate", "--model", "JC69",
                             "--tree", QUARTET_NEWICK, "--seed", "1",
                             "--concentration", value)
        assert (code, out, err) == (
            1, "", "error: concentration must be positive\n")

    @pytest.mark.parametrize("sites", ["0", "-1"])
    def test_sites_below_one_exit_one(self, capsys, tmp_path, sites):
        # an alignment of no sites is one that fit, score and reconstruct
        # reject
        out_path = tmp_path / "empty.fasta"
        code, out, err = run(capsys, "simulate", "--model", "JC69",
                             "--tree", QUARTET_NEWICK, "--seed", "1",
                             "--sites", sites, "--out", str(out_path))
        assert (code, out, err) == (1, "",
                                    "error: --sites must be at least 1\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("n", [13, 40])
    @pytest.mark.parametrize("sites", [[], ["--sites", "10"]])
    def test_past_the_cap_exit_one_before_the_table(self, capsys, tmp_path,
                                                    n, sites):
        # the table of every pattern of 13 leaves would take 2 GiB
        newick = "(" * (n - 1) + "1,2)" + "".join(
            f",{leaf})" for leaf in range(3, n + 1)) + ";"
        out_path = tmp_path / "big.out"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--model", "JC69",
                                 "--tree", newick, "--seed", "1", *sites,
                                 "--out", str(out_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (
            1, "", f"error: {n} positions exceed the dense cap 12\n")
        assert not out_path.exists()
        assert peak < 2 ** 20

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


class TestInput:
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_container_is_read_into_its_array(self, tmp_path, monkeypatch,
                                              via):
        # no bytes object and no copy beside the 9-leaf tensor's values
        n = 9
        psi = PatternTensor(np.random.default_rng(1).random(4 ** n),
                            tuple(range(1, n + 1)))
        path = tmp_path / "t.eqpt"
        save_tensor(psi, path)

        def load():
            if via == "file":
                return cli._load_input(str(path), "auto", "error")
            with open(path, "rb") as stdin:
                monkeypatch.setattr(sys, "stdin", SimpleNamespace(
                    buffer=stdin))
                return cli._load_input("-", "auto", "error")

        load()
        tracemalloc.start()
        try:
            back = load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, psi.values)
        assert peak <= 1.05 * psi.values.nbytes

    @pytest.mark.parametrize("name, text", [
        ("a.fasta", ">a\nACGT\n>b\nACGA\n>c\nACGC\n>d\nACTT\n"),
        ("a.json", '{"n": 2, "entries": [["AC", 0.25], ["GT", 0.75]]}'),
        ("b.json", '      \n{"n": 2, "entries": [["AC", 1.0]]}'),
        # a UTF-8 byte-order mark goes before the sniff
        ("b.fasta", "\ufeff>a\nACGT\n>b\nACGA\n>c\nACGC\n>d\nACTT\n"),
        ("c.json", '\ufeff  {"n": 2, "entries": [["AC", 1.0]]}'),
    ])
    def test_text_reads_alike_from_a_file_and_a_pipe(self, tmp_path,
                                                     monkeypatch, name, text):
        # the format is sniffed from the whole text, past the first bytes
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        from_file = cli._load_input(str(path), "auto", "error")
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        with open(read, "rb") as stdin:
            monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=stdin))
            from_pipe = cli._load_input("-", "auto", "error")
        assert np.array_equal(from_file.values, from_pipe.values)
        assert from_file.values.any()

    @pytest.mark.parametrize("fmt, text", [
        ("fasta", ">a\nACGT\n>b\nACGA\n"),
        ("json", '{"n": 2, "entries": [["AC", 1.0]]}'),
    ])
    def test_byte_order_mark_is_dropped_in_a_given_format(self, tmp_path,
                                                          fmt, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        want = cli._load_input(str(plain), fmt, "error")
        got = cli._load_input(str(marked), fmt, "error")
        assert np.array_equal(got.values, want.values)


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
        # one call scores every model, each named once, in request order
        calls = []
        real = cli.fit_scores
        monkeypatch.setattr(cli, "fit_scores", lambda psi, models: (
            calls.append([m.name for m in models]) or real(psi, models)))
        code, out, _ = run(capsys, "fit", "--input", str(path),
                           "--models", "K81,jc69,K81, JC69,GMM")
        assert code == 0
        assert calls == [["K81", "JC69", "GMM"]]
        assert list(json.loads(out)["fit_scores"]) == ["K81", "JC69", "GMM"]

    def test_keys_in_request_order_for_every_subset(self, capsys, tmp_path):
        # each subset asked in a shuffled order, with a duplicate and mixed
        # case: one key per model in the order first asked, and the
        # scores of the forward-order request bit for bit
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree", QUARTET_NEWICK,
            "--seed", "6", "--out", str(path))
        names = ["GMM", "SSM", "K81", "K80", "JC69"]
        rng = np.random.default_rng(0)
        for size in range(1, 6):
            for subset in itertools.combinations(names, size):
                _, out, _ = run(capsys, "fit", "--input", str(path),
                                "--models", ",".join(subset))
                forward = json.loads(out)["fit_scores"]
                asked = [*subset, subset[rng.integers(size)]]
                rng.shuffle(asked)
                asked = [m.lower() if rng.random() < 0.5 else m
                         for m in asked]
                code, out, _ = run(capsys, "fit", "--input", str(path),
                                   "--models", ",".join(asked))
                assert code == 0
                got = json.loads(out)["fit_scores"]
                assert list(got) == list(dict.fromkeys(
                    m.upper() for m in asked))
                assert got == forward

    def test_one_walk_for_every_model(self, capsys, tmp_path, monkeypatch):
        # a 9-leaf input, several orbits, walked once for the chain SSM <
        # K81 < K80 < JC69: the rows of its four factors (SSM's, K81's and
        # K80's involutions, JC69's order 3 as one stack) at the low and
        # the high digits; a walk per model would build 2 (1 + 2 + 3 + 5)
        path = tmp_path / "t.eqpt"
        run(capsys, "simulate", "--model", "K81", "--tree",
            "((((((1,2),3),4),5),(6,7)),(8,9));", "--seed", "1",
            "--out", str(path))
        walks, builds = [], []
        walk, build = scores.orbit_stages, groups._element_row
        monkeypatch.setattr(scores, "orbit_stages", lambda *a: (
            walks.append([m.name for m in a[1]]) or walk(*a)))
        monkeypatch.setattr(groups, "_element_row", lambda *a: (
            builds.append(a[1]) or build(*a)))
        code, out, _ = run(capsys, "fit", "--input", str(path),
                           "--models", "JC69,K80,K81,SSM,GMM")
        assert code == 0
        assert walks == [["SSM", "K81", "K80", "JC69"]]
        assert sorted(builds) == [3] * 4 + [6] * 4
        assert json.loads(out)["fit_scores"]["K81"] <= 1e-12

    def test_models_that_do_not_nest_rejected_before_the_input(
            self, capsys, tmp_path, monkeypatch):
        # the built-ins always nest; {1, (AC)} stands in for a model that
        # K81 does not hold
        transposition = transposition_group()
        monkeypatch.setattr(cli, "builtin_model", lambda name: (
            transposition if name == "AC" else groups.builtin_model(name)))
        code, out, err = run(capsys, "fit", "--input",
                             str(tmp_path / "missing.eqpt"),
                             "--models", "K81,AC")
        assert code == 1
        assert out == ""
        assert err.startswith("error: models AC and K81 do not nest")

    @pytest.mark.parametrize("models", ["JC69,BOGUS", "bogus", "K81,,K8O"])
    def test_unknown_model_rejected_before_the_input(self, capsys, tmp_path,
                                                     models):
        # the input does not exist: the error names the model, not the file
        missing = tmp_path / "missing.eqpt"
        code, out, err = run(capsys, "fit", "--input", str(missing),
                             "--models", models)
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown model")
        assert models.split(",")[-1].upper() in err
        assert "missing" not in err

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
