"""Seeded fuzz tests for the four input parsers.

Valid inputs are mutated by truncation, byte flips and field deletion in
``random.Random(seed)`` loops.  Every mutated input must either parse or
raise ValueError (which the CLI turns into ``error:`` and exit 1); any other
exception is a parser bug.
"""

import json
import random

import numpy as np
import pytest

from edgeinv.simulate import read_fasta
from edgeinv.tensors import (
    PatternTensor,
    tensor_from_bytes,
    tensor_from_json,
    tensor_to_bytes,
    tensor_to_json,
)
from edgeinv.trees import from_newick

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
        parses_or_value_error(tensor_from_bytes, blob)


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
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(psi)).values,
                          psi.values)
    assert tensor_from_json(tensor_to_json(psi)).n == 3
    assert len(read_fasta(valid_fasta()).taxa) == 5
    assert from_newick(valid_newick())[0].n_leaves == 7
