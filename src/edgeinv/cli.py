"""Command-line interface.

Subcommands: model-info, simulate, score, reconstruct, fit.  Machine output
is JSON on stdout (the per-bipartition report schema for score/reconstruct);
exit status 0 means a confident answer, 2 an answer with warnings, 1 an
error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .groups import MODEL_NAMES, builtin_model, model_chain, \
    symmetry_adapted_basis
from .reconstruct import empirical_tensor, reconstruct_by_splits, \
    reconstruct_exhaustive
from .scores import all_bipartitions, fit_scores, score_splits, \
    split_report
from .simulate import (
    joint_distribution,
    random_presentation,
    read_fasta,
    sample_alignment,
    write_fasta,
)
from .tensors import (
    PatternTensor,
    pattern_strings,
    read_container,
    save_tensor,
    tensor_from_json,
    tensor_to_json,
)
from .trees import Bipartition, from_newick


def _render_basis_vector(rows: np.ndarray, values: np.ndarray,
                         names: list[str]) -> str:
    """Exact form when entries are a +-integer pattern over sqrt(norm).  The
    vector has ``values`` at ``rows`` and zeros at the other patterns."""
    order = np.argsort(rows)
    rows, values = rows[order], values[order]
    nonzero = values[np.abs(values) > 1e-12]
    if nonzero.size == 0:
        return "0"
    scale = np.abs(nonzero).min()
    ints = values / scale
    rounded = np.rint(ints)
    if np.abs(ints - rounded).max() < 1e-9:
        norm = int(round((rounded ** 2).sum()))
        terms = []
        for idx in np.flatnonzero(rounded):
            coeff = int(rounded[idx])
            label = names[rows[idx]]
            sign = "+" if coeff > 0 else "-"
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            terms.append(f"{sign} {mag}{label}")
        body = " ".join(terms).lstrip("+ ")
        return f"({body}) / sqrt({norm})"
    vec = np.zeros(len(names))
    vec[rows] = values
    return "[" + ", ".join(f"{x: .6f}" for x in vec) + "]"


def cmd_model_info(args) -> int:
    model = builtin_model(args.model)
    power = args.power
    model.multiplicities(power)  # a power outside the guard fails here
    print(f"model {model.name}: group order {model.order}, "
          f"{model.n_irreps} irreducible representations")
    labels = model.class_labels
    sizes = model.class_sizes
    header = "  ".join(f"{lab}(x{sz})" for lab, sz in zip(labels, sizes))
    print(f"\ncharacter table over classes: {header}")
    table = model.character_table()
    for t, ir in enumerate(model.irreps):
        row = "  ".join(f"{v:3d}" for v in table[t])
        print(f"  {ir.name:<8} (dim {ir.dim}): {row}")
    chi = "  ".join(f"{v:3d}" for v in model.permutation_character())
    print(f"  {'chi':<8} (states) : {chi}")
    for l in range(1, power + 1):
        m = model.multiplicities(l)
        print(f"\nmultiplicities m({l}) = {m.entries}")
    if args.basis:
        basis = symmetry_adapted_basis(model, power)
        data, rows, indptr = basis.csc_arrays
        names = pattern_strings(np.arange(len(basis.tags)), power)
        print(f"\nadapted basis of the {power}-fold state space:")
        for col, (t, r, j) in enumerate(basis.tags):
            name = model.irreps[t].name
            span = slice(indptr[col], indptr[col + 1])
            rendered = _render_basis_vector(rows[span], data[span], names)
            print(f"  [{name} copy {r + 1} vec {j + 1}] {rendered}")
    return 0


def _write_tensor(psi: PatternTensor, out: Optional[str]) -> None:
    if out is None or out == "-":
        print(tensor_to_json(psi))
        return
    path = Path(out)
    if path.suffix == ".json":
        path.write_text(tensor_to_json(psi))
    else:
        save_tensor(psi, path)


def cmd_simulate(args) -> int:
    if args.sites is not None and args.sites < 1:
        raise ValueError("--sites must be at least 1")
    model = builtin_model(args.model)
    tree, names = from_newick(args.tree)
    pres = random_presentation(model, tree, args.seed,
                               concentration=args.concentration)
    psi = joint_distribution(pres)
    if args.sites is not None:
        taxa = tuple(names[i] for i in range(1, tree.n_leaves + 1))
        alignment = sample_alignment(psi, args.sites, args.seed, taxa=taxa)
        text = write_fasta(alignment)
        if args.out and args.out != "-":
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    else:
        _write_tensor(psi, args.out)
    return 0


_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, dropped from a text
_SPACE = re.compile(rb"\s*")


def _load_input(path: str, fmt: str, ambiguous: str) -> PatternTensor:
    with (open(path, "rb") if path != "-"
          else contextlib.nullcontext(sys.stdin.buffer)) as stream:
        head = stream.read(4)
        if fmt == "tensor" or (fmt == "auto" and head == b"EQPT"):
            return read_container(stream, head)
        if stream.seekable():  # one buffer; read() would join head and rest
            size = stream.seek(0, io.SEEK_END)
            stream.seek(0)
            data = stream.read(size)
        else:
            data = head + stream.read()
    start = len(_BOM) if data.startswith(_BOM) else 0
    if fmt == "auto":
        at = _SPACE.match(data, start).end()
        if data[at:at + 1] == b"{":
            fmt = "json"
        elif data[at:at + 1] == b">":
            fmt = "fasta"
        else:
            raise ValueError(f"cannot sniff the format of {path}")
    text = str(memoryview(data)[start:], "utf-8")  # the bytes not copied
    del data  # free the bytes before the text is parsed
    if fmt == "json":
        return tensor_from_json(text)
    return empirical_tensor(read_fasta(text, ambiguous))


def cmd_score(args) -> int:
    model = builtin_model(args.model)
    psi = _load_input(args.input, args.format, args.ambiguous)
    if args.split:
        splits = [Bipartition.parse(args.split, psi.n)]
    else:
        splits = all_bipartitions(psi.n, nontrivial_only=True)
    scores = score_splits(psi, model, splits).values()
    print(json.dumps(split_report(model, psi.n, scores), indent=2))
    return 0


def cmd_reconstruct(args) -> int:
    model = builtin_model(args.model)
    psi = _load_input(args.input, args.format, args.ambiguous)
    if args.method == "exhaustive":
        result = reconstruct_exhaustive(psi, model, tol=args.tol)
    else:
        result = reconstruct_by_splits(psi, model, tol=args.tol)
    print(json.dumps(result.to_report(model, psi.n), indent=2))
    return 0 if result.confident else 2


def cmd_fit(args) -> int:
    names = dict.fromkeys(n.strip().upper() for n in args.models.split(",")
                          if n.strip())
    if not names:
        raise ValueError("--models lists no model name")
    models = [builtin_model(name) for name in names]
    model_chain(models)  # names and nesting checked before the input is read
    psi = _load_input(args.input, args.format, args.ambiguous)
    scores = dict(zip(names, fit_scores(psi, models)))
    print(json.dumps({"n": psi.n, "fit_scores": scores}, indent=2))
    return 0


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True,
                   help="tensor container, tensor JSON, or FASTA ('-' "
                        "for stdin)")
    p.add_argument("--format", choices=["auto", "tensor", "json", "fasta"],
                   default="auto")
    p.add_argument("--ambiguous", choices=["error", "drop"],
                   default="error",
                   help="how to treat non-ACGT alignment columns")


def _add_model_info(sub) -> None:
    p = sub.add_parser("model-info", help="character table, multiplicities, "
                                          "adapted basis")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--power", type=int, default=2)
    p.add_argument("--basis", action="store_true",
                   help="also print the adapted basis vectors")
    p.set_defaults(func=cmd_model_info)


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="draw parameters, emit a tensor or "
                                        "a FASTA alignment")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--tree", required=True, help="newick topology")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sites", type=int, default=None,
                   help="sample an alignment of this many sites instead of "
                        "emitting the tensor")
    p.add_argument("--concentration", type=float, default=10.0)
    p.add_argument("--out", default=None,
                   help="output path; .json for the debug form, anything "
                        "else for the binary container; default stdout JSON")
    p.set_defaults(func=cmd_simulate)


def _add_score(sub) -> None:
    p = sub.add_parser("score", help="score bipartitions of the leaf set")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    _add_input_opts(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--split", help='one split, e.g. "1,2|3,4"')
    group.add_argument("--all-splits", action="store_true")
    p.set_defaults(func=cmd_score)


def _add_reconstruct(sub) -> None:
    p = sub.add_parser("reconstruct", help="infer the tree topology")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    _add_input_opts(p)
    p.add_argument("--method", choices=["exhaustive", "splits"],
                   default="exhaustive")
    p.add_argument("--tol", type=float, default=None,
                   help="edge-score tolerance; default is data driven: "
                        "the median of the scored splits / 100 (for "
                        "exhaustive, every split, weighted by the "
                        "topologies holding it; for splits, the splits "
                        "that joining scored)")
    p.set_defaults(func=cmd_reconstruct)


def _add_fit(sub) -> None:
    p = sub.add_parser("fit", help="linear-invariant model fit scores")
    _add_input_opts(p)
    p.add_argument("--models", required=True,
                   help="comma-separated model names")
    p.set_defaults(func=cmd_fit)


_SUBCOMMANDS = {"model-info": _add_model_info, "simulate": _add_simulate,
                "score": _add_score, "reconstruct": _add_reconstruct,
                "fit": _add_fit}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand, or with only ``command``
    when it names one.  The one-subcommand parser prints the same usage line,
    so its help and error texts are those of the full one."""
    parser = argparse.ArgumentParser(
        prog="edgeinv",
        description="tree topology decisions from site-pattern tensors via "
                    "equivariant flattening ranks")
    single = command in _SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if single else None)
    for name in [command] if single else _SUBCOMMANDS:
        _SUBCOMMANDS[name](sub)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call builds the subparser it runs; no name, --help or an unknown
    # name gets all of them
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
