"""Seeded fuzz tests for the four input parsers.

Valid inputs are mutated by truncation, byte flips and field deletion in
``random.Random(seed)`` loops.  Every mutated input must either parse or
raise ValueError (which the CLI turns into ``error:`` and exit 1); any other
exception is a parser bug.  Container mutants also go through ``cli.main``,
from a file and from stdin.
"""

import io
import json
import os
import random
import struct
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from edgeinv.cli import main
from edgeinv.simulate import read_fasta
from edgeinv.tensors import (
    PatternTensor,
    read_container,
    tensor_from_json,
    tensor_to_json,
)
from edgeinv.trees import from_newick
from helpers import tensor_to_bytes

CASES = 400


def valid_tensor() -> PatternTensor:
    values = np.random.default_rng(0).random(4 ** 3)
    return PatternTensor(values / values.sum(), (1, 2, 3), stochastic=True)


def valid_fasta() -> str:
    rng = random.Random(0)
    return "".join(f">t{i} taxon {i}\n" + "".join(rng.choice("ACGT")
                                                    for _ in range(40)) + "\n"
                   for i in range(1, 6))


def valid_newick() -> str:
    return "((t1:0.1,t2:0.2)0.9:0.05,(t3,t4)x,(t5,(t6,t7)));"


def truncate(rng: random.Random, blob: bytes) -> bytes:
    return blob[:rng.randrange(len(blob))]


def flip_bytes(rng: random.Random, blob: bytes) -> bytes:
    out = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(out))
        if rng.random() < 0.5:
            out[pos] ^= 1 << rng.randrange(8)
        else:
            out[pos] = rng.randrange(256)
    return bytes(out)


def delete_slice(rng: random.Random, blob: bytes) -> bytes:
    start = rng.randrange(len(blob))
    return blob[:start] + blob[start + rng.randint(1, 16):]


def mutations(seed: int, blob: bytes, *structured):
    """Yield CASES mutants of ``blob``; structured deleters take (rng, blob)."""
    rng = random.Random(seed)
    ops = (truncate, flip_bytes, delete_slice) + structured
    for _ in range(CASES):
        yield rng.choice(ops)(rng, blob)


def parses_or_value_error(parse, data) -> None:
    try:
        parse(data)
    except ValueError:
        pass


def delete_json_field(rng: random.Random, blob: bytes) -> bytes:
    doc = json.loads(blob)
    key = rng.choice(sorted(doc))
    if key == "entries" and doc["entries"] and rng.random() < 0.5:
        entry = rng.choice(doc["entries"])
        del entry[rng.randrange(len(entry))]
    else:
        del doc[key]
    return json.dumps(doc).encode()


def delete_header_field(rng: random.Random, blob: bytes) -> bytes:
    start = 4 + 2 * rng.randrange(4)  # version, n, k, flags
    return blob[:start] + blob[start + 2:]


def delete_fasta_line(rng: random.Random, blob: bytes) -> bytes:
    lines = blob.split(b"\n")
    del lines[rng.randrange(len(lines))]
    return b"\n".join(lines)


def delete_newick_mark(rng: random.Random, blob: bytes) -> bytes:
    marks = [i for i, byte in enumerate(blob) if byte in b"(),:;"]
    pos = rng.choice(marks)
    return blob[:pos] + blob[pos + 1:]


@pytest.mark.parametrize("seed", range(3))
def test_tensor_container(seed):
    for blob in mutations(seed, tensor_to_bytes(valid_tensor()),
                          delete_header_field):
        parses_or_value_error(read_container, io.BytesIO(blob))


def fit_exit(capsys, monkeypatch, tmp_path, blob: bytes, via: str):
    """(exit code, stdout, stderr) of ``edgeinv fit`` on ``blob``, read from
    a file or from stdin (a pipe, so not seekable)."""
    if via == "file":
        source = tmp_path / "in.eqpt"
        source.write_bytes(blob)
        return run_fit(capsys, str(source))
    read, write = os.pipe()
    os.write(write, blob)  # every blob here fits in the pipe's buffer
    os.close(write)
    with open(read, "rb") as stdin:
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=stdin))
        return run_fit(capsys, "-")


def run_fit(capsys, source: str):
    code = main(["fit", "--input", source, "--models", "K81"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("seed", range(3))
def test_tensor_container_through_the_cli(capsys, monkeypatch, tmp_path,
                                          seed, via):
    for blob in mutations(seed, tensor_to_bytes(valid_tensor()),
                          delete_header_field):
        code, out, err = fit_exit(capsys, monkeypatch, tmp_path, blob, via)
        assert code == 0 or (code, out) == (1, "") and \
            err.startswith("error:"), (blob, err)


def header(n: int) -> bytes:
    return b"EQPT" + struct.pack("<HHHH", 1, n, 4, 1)


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("blob, message", [
    (header(3), "expected 64 entries for 3 positions, got (0,)"),
    (tensor_to_bytes(valid_tensor())[:-8],
     "expected 64 entries for 3 positions, got (63,)"),
    (tensor_to_bytes(valid_tensor())[:-3],
     "buffer size must be a multiple of element size"),
    (tensor_to_bytes(valid_tensor()) + b"\0",
     "buffer size must be a multiple of element size"),
    (header(13) + bytes(8), "13 positions exceed the dense cap 12"),
    (header(65535), "65535 positions exceed the dense cap 12"),
], ids=["header-only", "truncated", "ragged", "extra-byte", "n13", "n65535"])
def test_malformed_container_exit_one(capsys, monkeypatch, tmp_path, blob,
                                      message, via):
    # checked before 4^n floats are allocated, never a MemoryError
    assert fit_exit(capsys, monkeypatch, tmp_path, blob, via) == (
        1, "", f"error: {message}\n")


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_valid_container_through_the_cli(capsys, monkeypatch, tmp_path, via):
    code, out, err = fit_exit(capsys, monkeypatch, tmp_path,
                              tensor_to_bytes(valid_tensor()), via)
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 3


@pytest.mark.parametrize("seed", range(3))
def test_tensor_json(seed):
    for blob in mutations(seed, tensor_to_json(valid_tensor()).encode(),
                          delete_json_field):
        parses_or_value_error(tensor_from_json, blob.decode("latin-1"))


@pytest.mark.parametrize("seed", range(3))
def test_fasta(seed):
    for blob in mutations(seed, valid_fasta().encode(), delete_fasta_line):
        parses_or_value_error(read_fasta, blob.decode("latin-1"))


@pytest.mark.parametrize("seed", range(3))
def test_newick(seed):
    for blob in mutations(seed, valid_newick().encode(), delete_newick_mark):
        parses_or_value_error(from_newick, blob.decode("latin-1"))


def test_unmutated_inputs_parse():
    psi = valid_tensor()
    assert np.array_equal(
        read_container(io.BytesIO(tensor_to_bytes(psi))).values, psi.values)
    assert tensor_from_json(tensor_to_json(psi)).n == 3
    assert len(read_fasta(valid_fasta()).taxa) == 5
    assert from_newick(valid_newick())[0].n_leaves == 7
