"""Presentation, joint-distribution, and sampling tests.

The joint distribution is checked against a naive nested-loop sum over all
interior-state assignments, written out independently of the message-passing
implementation.
"""

import random
import tracemalloc

import numpy as np
import pytest

from edgeinv.cli import _load_input
from edgeinv.groups import builtin_model
from edgeinv.reconstruct import empirical_tensor
from edgeinv.simulate import (
    Alignment,
    EvolutionaryPresentation,
    default_taxa,
    joint_distribution,
    position_orbits,
    random_presentation,
    read_fasta,
    sample_alignment,
    write_fasta,
)
from edgeinv.tensors import PatternTensor
from edgeinv.trees import TreeTopology, from_newick
import edgeinv.simulate
from helpers import alignment_from_counts, fasta_by_pattern_strings, \
    fasta_column_counts, group_average, lines_stripped_one_by_one, \
    no_mutation_presentation, presentation_from_json, presentation_to_json

MODELS = ["GMM", "SSM", "K81", "K80", "JC69"]


def quartet12() -> TreeTopology:
    return TreeTopology(4, [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])


def star3() -> TreeTopology:
    return TreeTopology(3, [(1, 4), (2, 4), (3, 4)])


# ---------------------------------------------------------------------------
# Orbit structure of equivariant matrices
# ---------------------------------------------------------------------------

class TestPositionOrbits:
    @pytest.mark.parametrize("name,free", [
        ("GMM", 16), ("SSM", 8), ("K81", 4), ("K80", 3), ("JC69", 2)])
    def test_free_parameter_counts(self, name, free):
        assert len(position_orbits(builtin_model(name))) == free

    def test_jc69_shape(self):
        # a on the diagonal, one shared b elsewhere
        mat = random_presentation(builtin_model("JC69"), quartet12(), 0) \
            .edge_matrices[(5, 1)]
        diag = np.diag(mat)
        off = mat[~np.eye(4, dtype=bool)]
        assert np.ptp(diag) < 1e-15 and np.ptp(off) < 1e-15
        assert diag[0] + 3 * off[0] == pytest.approx(1.0)
        assert diag[0] > off[0] > 0

    def test_k80_shape(self):
        mat = random_presentation(builtin_model("K80"), quartet12(), 1) \
            .edge_matrices[(5, 1)]
        a, b, c = mat[0, 0], mat[0, 1], mat[0, 2]
        expected = np.array([[a, b, c, b], [b, a, b, c],
                             [c, b, a, b], [b, c, b, a]])
        assert np.abs(mat - expected).max() < 1e-15
        assert len({round(x, 12) for x in (a, b, c)}) == 3

    def test_k81_shape(self):
        mat = random_presentation(builtin_model("K81"), quartet12(), 2) \
            .edge_matrices[(5, 1)]
        a, b, c, d = mat[0]
        expected = np.array([[a, b, c, d], [b, a, d, c],
                             [c, d, a, b], [d, c, b, a]])
        assert np.abs(mat - expected).max() < 1e-15

    def test_ssm_shape(self):
        mat = random_presentation(builtin_model("SSM"), quartet12(), 3) \
            .edge_matrices[(5, 1)]
        assert np.abs(mat - mat[::-1, ::-1]).max() < 1e-15

    def test_gmm_unconstrained(self):
        mat = random_presentation(builtin_model("GMM"), quartet12(), 4) \
            .edge_matrices[(5, 1)]
        assert len({round(x, 12) for x in mat.reshape(-1)}) == 16

    @pytest.mark.parametrize("name", MODELS)
    def test_columns_sum_to_one(self, name):
        pres = random_presentation(builtin_model(name), quartet12(), 5)
        for mat in pres.edge_matrices.values():
            assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-12
            assert mat.min() > 0

    def test_deterministic_per_seed(self):
        a = random_presentation(builtin_model("K81"), quartet12(), 42)
        b = random_presentation(builtin_model("K81"), quartet12(), 42)
        for key in a.edge_matrices:
            assert np.array_equal(a.edge_matrices[key], b.edge_matrices[key])


# ---------------------------------------------------------------------------
# Joint distributions
# ---------------------------------------------------------------------------

def star3_oracle(pres: EvolutionaryPresentation) -> np.ndarray:
    """Naive sum over the single interior state."""
    pi = pres.root_distribution
    a1 = pres.matrix_for(4, 1)
    a2 = pres.matrix_for(4, 2)
    a3 = pres.matrix_for(4, 3)
    out = np.zeros((4, 4, 4))
    for x1 in range(4):
        for x2 in range(4):
            for x3 in range(4):
                total = 0.0
                for y in range(4):
                    total += pi[y] * a1[x1, y] * a2[x2, y] * a3[x3, y]
                out[x1, x2, x3] = total
    return out.reshape(-1)


def quartet_oracle(pres: EvolutionaryPresentation) -> np.ndarray:
    """Naive five-deep loop over leaf states and both interior states."""
    pi = pres.root_distribution
    a1 = pres.matrix_for(5, 1)
    a2 = pres.matrix_for(5, 2)
    ae = pres.matrix_for(5, 6)
    a3 = pres.matrix_for(6, 3)
    a4 = pres.matrix_for(6, 4)
    out = np.zeros((4, 4, 4, 4))
    for x1 in range(4):
        for x2 in range(4):
            for x3 in range(4):
                for x4 in range(4):
                    total = 0.0
                    for y in range(4):
                        for z in range(4):
                            total += (pi[y] * ae[z, y] * a1[x1, y]
                                      * a2[x2, y] * a3[x3, z] * a4[x4, z])
                    out[x1, x2, x3, x4] = total
    return out.reshape(-1)


class TestJointDistribution:
    def test_no_mutation_quartet(self):
        psi = joint_distribution(no_mutation_presentation(quartet12()))
        expected = PatternTensor.from_pattern_counts(
            {s * 4: 0.25 for s in "ACGT"}, 4, stochastic=True)
        assert np.array_equal(psi.values, expected.values)
        assert psi.stochastic

    @pytest.mark.parametrize("seed", range(4))
    def test_star_matches_nested_loop_oracle(self, seed):
        pres = random_presentation(builtin_model("GMM"), star3(), seed)
        psi = joint_distribution(pres)
        assert np.abs(psi.values - star3_oracle(pres)).max() < 1e-14

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", range(2))
    def test_quartet_matches_nested_loop_oracle(self, name, seed):
        pres = random_presentation(builtin_model(name), quartet12(), seed)
        psi = joint_distribution(pres)
        assert np.abs(psi.values - quartet_oracle(pres)).max() < 1e-14

    @pytest.mark.parametrize("name", MODELS)
    def test_output_exactly_invariant(self, name):
        model = builtin_model(name)
        pres = random_presentation(model, quartet12(), 31)
        psi = joint_distribution(pres)
        gap = np.abs(psi.values
                     - group_average(psi.values, model, 4)).max()
        assert gap <= 1e-12

    @pytest.mark.parametrize("name", MODELS)
    def test_rooting_independence(self, name):
        pres = random_presentation(builtin_model(name), quartet12(), 17)
        reference = joint_distribution(pres).values
        for vertex in pres.tree.adjacency:
            moved = joint_distribution(pres, root=vertex).values
            assert np.abs(moved - reference).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_stochastic_output(self, seed):
        psi = joint_distribution(
            random_presentation(builtin_model("K80"), quartet12(), seed))
        assert psi.stochastic
        assert psi.values.min() >= 0
        assert psi.values.sum() == pytest.approx(1.0)

    def test_single_vertex_tree(self):
        tree = TreeTopology(1, [])
        pres = no_mutation_presentation(tree)
        psi = joint_distribution(pres)
        assert np.array_equal(psi.values, np.full(4, 0.25))

    def test_two_leaf_tree(self):
        tree = TreeTopology(2, [(1, 2)])
        pres = random_presentation(builtin_model("GMM"), tree, 3)
        psi = joint_distribution(pres)
        a = pres.matrix_for(1, 2)
        expected = np.array([[0.25 * a[x2, x1] for x2 in range(4)]
                             for x1 in range(4)]).reshape(-1)
        assert np.abs(psi.values - expected).max() < 1e-14

    @pytest.mark.parametrize("n", [13, 40])
    def test_past_the_cap_rejected_before_the_table(self, n):
        # the table of every pattern of 13 leaves would take 2 GiB
        newick = "(" * (n - 1) + "1,2)" + "".join(
            f",{leaf})" for leaf in range(3, n + 1)) + ";"
        pres = random_presentation(builtin_model("JC69"),
                                   from_newick(newick)[0], 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{n} positions exceed "
                                                 f"the dense cap 12$"):
                joint_distribution(pres)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_six_leaf_stochastic(self):
        tree = TreeTopology(6, [(1, 7), (2, 7), (7, 8), (3, 8), (8, 9),
                                (4, 9), (9, 10), (5, 10), (6, 10)])
        psi = joint_distribution(
            random_presentation(builtin_model("JC69"), tree, 11))
        assert psi.values.sum() == pytest.approx(1.0)
        assert psi.n == 6


# ---------------------------------------------------------------------------
# Sampling and alignments
# ---------------------------------------------------------------------------

class TestSampling:
    def test_zero_sites(self):
        psi = joint_distribution(no_mutation_presentation(quartet12()))
        aln = sample_alignment(psi, 0, seed=1)
        assert aln.n_sites == 0
        assert aln.taxa == default_taxa(4)

    def test_point_mass(self):
        psi = PatternTensor.from_pattern_counts({"AAAA": 1.0}, 4,
                                                stochastic=True)
        aln = sample_alignment(psi, 100, seed=2)
        assert aln.counts == {"AAAA": 100}

    def test_non_stochastic_rejected(self):
        psi = PatternTensor(np.ones(16), (1, 2))
        with pytest.raises(ValueError):
            sample_alignment(psi, 10, seed=0)

    def test_deterministic_per_seed(self):
        psi = joint_distribution(
            random_presentation(builtin_model("K81"), quartet12(), 8))
        a = sample_alignment(psi, 500, seed=3)
        b = sample_alignment(psi, 500, seed=3)
        assert a.counts == b.counts

    def test_law_of_large_numbers(self):
        psi = joint_distribution(
            random_presentation(builtin_model("K81"), quartet12(), 77))
        aln = sample_alignment(psi, 10 ** 6, seed=4)
        empirical = np.zeros(256)
        for pattern, count in aln.counts.items():
            idx = 0
            for ch in pattern:
                idx = idx * 4 + "ACGT".index(ch)
            empirical[idx] = count / aln.n_sites
        assert np.abs(empirical - psi.values).sum() < 0.01


class TestFasta:
    def test_roundtrip(self):
        psi = joint_distribution(
            random_presentation(builtin_model("JC69"), quartet12(), 5))
        aln = sample_alignment(psi, 200, seed=6)
        back = read_fasta(write_fasta(aln))
        assert back.taxa == aln.taxa
        assert back.counts == aln.counts

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            read_fasta(">a\nACGT\n>b\nACG\n")

    def test_ambiguous_error(self):
        with pytest.raises(ValueError):
            read_fasta(">a\nACNT\n>b\nACGT\n")

    def test_ambiguous_drop(self):
        aln = read_fasta(">a\nANCT\n>b\nAGCT\n", ambiguous="drop")
        assert aln.n_sites == 3
        assert aln.counts == {"AA": 1, "CC": 1, "TT": 1}

    def test_error_names_first_ambiguous_column(self):
        with pytest.raises(ValueError, match="column 3$"):
            read_fasta(">a\nAANANN\n>b\nAAGACN\n")

    def test_repeated_columns_counted_and_dropped(self):
        aln = read_fasta(">a\nANACANA\n>b\nCGCGCGC\n", ambiguous="drop")
        assert aln.counts == {"AC": 4, "CG": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_fasta("")

    def test_multiline_sequences(self):
        aln = read_fasta(">x\nAC\nGT\n>y\nAC\nGT\n")
        assert aln.n_sites == 4

    def test_more_taxa_than_the_dense_cap_rejected(self):
        text = "".join(f">t{i}\nACGT\n" for i in range(13))
        with pytest.raises(ValueError,
                           match=r"^13 positions outside the dense range "
                                 r"0\.\.12$"):
            read_fasta(text)

    @pytest.mark.parametrize("ambiguous", ["error", "drop"])
    def test_each_character_is_one_column(self, ambiguous):
        # str.upper would make the sharp s "SS" and the ligature "FF"
        with pytest.raises(ValueError, match="^sequences have unequal "
                                             "lengths$"):
            read_fasta(">a\nA\xdfC\n>b\nACGT\n", ambiguous)
        for text in (">a\nA\xdfC\n>b\nACG\n", ">a\nA\ufb00C\n>b\nacg\n"):
            got = outcome(read_fasta, text, ambiguous)
            if ambiguous == "drop":
                assert got.counts == {"AA": 1, "CG": 1}
            else:
                assert got == "ValueError: non-ACGT symbol in column 2"

    def test_written_in_site_order(self):
        aln = Alignment(("a", "b"), np.array([[2, 0, 0, 1], [3, 0, 1, 1]]))
        assert write_fasta(aln, width=3) == ">a\nGAA\nC\n>b\nTAC\nC\n"


# symbols of a random FASTA: upper and lower case bases, ambiguity codes and
# latin-1 letters whose upper case is another latin-1 letter (\xe9, \xf1)
# or lies outside latin-1 (\xb5, \xff)
BASES = "ACGTacgt"
NOISE = "N-?\xe9\xf1\xb5\xff"


def random_fasta(rng: random.Random) -> tuple[str, list[str]]:
    """A random FASTA text and its upper-cased sequences, split into lines
    of random width and joined by LF or CRLF."""
    taxa = rng.randint(1, 6)
    sites = rng.randint(1, 30)
    noise = rng.choice([0.0, 0.0, 0.02, 0.3])
    seqs = ["".join(rng.choice(NOISE) if rng.random() < noise
                    else rng.choice(BASES) for _ in range(sites))
            for _ in range(taxa)]
    lines = []
    for i, seq in enumerate(seqs):
        lines.append(f">t{i} taxon {i}")
        width = rng.randint(1, sites)
        lines.extend(seq[start:start + width]
                     for start in range(0, sites, width))
        if rng.random() < 0.2:
            lines.append("")
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(lines) + newline, [seq.upper() for seq in seqs]


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or the message of its ValueError."""
    try:
        return parse(*args)
    except ValueError as err:
        return f"ValueError: {err}"


class TestFastaColumnCount:
    """``read_fasta``'s array count against the column walk it replaced."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ambiguous", ["error", "drop"])
    def test_counts_and_errors_match_the_column_walk(self, seed, ambiguous):
        rng = random.Random(seed)
        for _ in range(200):
            text, seqs = random_fasta(rng)
            got = outcome(read_fasta, text, ambiguous)
            want = outcome(fasta_column_counts, seqs, ambiguous)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.counts == want
                assert got.taxa == tuple(f"t{i}" for i in range(len(seqs)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ambiguous", ["error", "drop"])
    def test_cli_tensor_matches_the_alignment_route(self, tmp_path, seed,
                                                    ambiguous):
        # the CLI's tensor against the frequencies of the column walk's
        # pattern strings: the same bytes, or the same error
        rng = random.Random(seed)
        path = tmp_path / "a.fasta"
        for _ in range(200):
            text, seqs = random_fasta(rng)
            path.write_text(text, encoding="utf-8")
            got = outcome(_load_input, str(path), "fasta", ambiguous)
            want = outcome(fasta_column_counts, seqs, ambiguous)
            if isinstance(want, str):
                assert got == want
            else:
                total = sum(want.values())
                want = PatternTensor.from_pattern_counts(
                    {p: c / total for p, c in want.items()}, len(seqs))
                assert got.stochastic and got.labels == want.labels
                assert np.array_equal(got.values, want.values)

    def test_peak_memory_bounded_by_the_text(self):
        # read_fasta + empirical_tensor of 10^5 sites x 8 taxa peaks at
        # 2.8x the FASTA text size (the column walk: 2.9x)
        text = caterpillar_fasta()
        assert traced_peak(lambda: empirical_tensor(read_fasta(text))) \
            <= 4 * len(text)

    def test_cli_peak_memory_bounded_by_the_text(self, tmp_path):
        # the CLI frees the file's bytes before the text is parsed
        text = caterpillar_fasta()
        path = tmp_path / "a.fasta"
        path.write_text(text)
        assert traced_peak(lambda: _load_input(str(path), "auto", "error")) \
            <= 4 * len(text)


# whitespace for ``messy_fasta``: every line break of str.splitlines and
# every other character that str.strip removes, ASCII or not
BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
BLANKS = " \t\x1f\xa0\u1680\u2000\u2005\u200a\u202f\u205f\u3000"


def messy_fasta(rng: random.Random) -> str:
    """A ``random_fasta`` text with whitespace of every kind and stray ">"
    put in at random: around line breaks, inside lines, in place of line
    breaks and at both ends."""
    text, _ = random_fasta(rng)
    spaces = rng.choice([" \t", " ", BLANKS, BLANKS + BREAKS])
    out = [rng.choice(["", "\n", " ", rng.choice(BLANKS + BREAKS)])]
    for ch in text:
        if ch == "\n" and rng.random() < 0.3:
            ch = rng.choice(BREAKS)
        if ch in "\r\n" and rng.random() < 0.3:
            ch = rng.choice(spaces) + ch + rng.choice(spaces)
        elif rng.random() < 0.005:
            ch += rng.choice(spaces + ">")
        out.append(ch)
    if rng.random() < 0.2:
        out.append(rng.choice(BLANKS) + ">")
    return "".join(out)


class TestFastaLinePass:
    """``read_fasta`` strips whitespace around line breaks only, in place;
    against the line-by-line strip it replaced."""

    @staticmethod
    def both(monkeypatch, text, ambiguous):
        got = outcome(read_fasta, text, ambiguous)
        with monkeypatch.context() as patch:
            patch.setattr(edgeinv.simulate, "_stripped_lines",
                          lines_stripped_one_by_one)
            want = outcome(read_fasta, text, ambiguous)
        return got, want

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ambiguous", ["error", "drop"])
    def test_same_codes_or_error_as_line_by_line(self, monkeypatch, seed,
                                                 ambiguous):
        rng = random.Random(seed)
        kinds = set()
        for _ in range(300):
            text = messy_fasta(rng)
            got, want = self.both(monkeypatch, text, ambiguous)
            if isinstance(want, str):
                assert got == want
                kinds.add(want)
            else:
                assert got.taxa == want.taxa
                assert np.array_equal(got.codes, want.codes)
                kinds.add("codes")
        assert "codes" in kinds and len(kinds) > 2

    @pytest.mark.parametrize("text", [
        ">a\r\nAC\r\n>b\r\nGT\r\n", " >a \n AC \n\t>b\u3000\nGT",
        ">a\u2028AC\x85>b\x0bGT", ">a x\nA C\n>b y\nGT\n",
        ">a\nA>C\n>b\nGTA\n", "\xa0\n>a\nAC\x1f\n>b\nGT\xa0\n",
        "x\n>a\nAC\n", "\u2029>a\x1c\x1dAC\x1e>b\x0cGT\r"])
    def test_examples(self, monkeypatch, text):
        got, want = self.both(monkeypatch, text, "drop")
        assert str(got) == str(want)

    @pytest.mark.parametrize("form", ["LF", "CRLF", "described"])
    def test_text_stays_whole(self, form):
        # without whitespace beside a line break the text is copied, once
        # per kind of break, and not split into lines (that peaks at 2.8x)
        text = caterpillar_fasta()
        if form == "CRLF":
            text = text.replace("\n", "\r\n")
        elif form == "described":
            text = text.replace(">t", ">taxon t")
        peak = traced_peak(lambda: edgeinv.simulate._stripped_lines(text))
        assert peak <= (1 + (form == "CRLF")) * len(text) + 1000


def caterpillar_fasta() -> str:
    """10^5 sites of an 8-taxon K81 caterpillar, as FASTA text."""
    tree, names = from_newick("(((((((t1,t2),t3),t4),t5),t6),t7),t8);")
    psi = joint_distribution(
        random_presentation(builtin_model("K81"), tree, 1))
    return write_fasta(sample_alignment(
        psi, 10 ** 5, 1, taxa=[names[i] for i in range(1, 9)]))


def traced_peak(parse) -> int:
    """The tracemalloc peak of a second ``parse()``, after a warm-up."""
    parse()
    tracemalloc.start()
    try:
        parse()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPresentationJson:
    @pytest.mark.parametrize("name", ["GMM", "K81"])
    def test_roundtrip(self, name):
        pres = random_presentation(builtin_model(name), quartet12(), 13)
        back = presentation_from_json(presentation_to_json(pres))
        assert back.model.name == name
        assert back.tree == pres.tree
        assert np.abs(joint_distribution(back).values
                      - joint_distribution(pres).values).max() < 1e-12


class TestAlignmentValidation:
    def test_wrong_pattern_length(self):
        with pytest.raises(ValueError):
            alignment_from_counts(("a", "b"), {"ACG": 1})

    @pytest.mark.parametrize("codes", [
        np.zeros((3, 5), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
        np.zeros((2, 5)), np.array([[0, 4], [0, 0]]),
        np.array([[0, 256], [0, 0]]), np.array([[0, -1], [0, 0]])],
        ids=["three-rows", "one-axis", "float", "code-4", "code-256",
             "code-minus-1"])
    def test_codes_rejected(self, codes):
        with pytest.raises(ValueError):
            Alignment(("a", "b"), codes)

    def test_more_taxa_than_the_dense_cap_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^13 positions outside the dense range "
                                 r"0\.\.12$"):
            Alignment(default_taxa(13), np.zeros((13, 2), dtype=np.uint8))

    def test_codes_read_only_without_touching_the_callers_array(self):
        codes = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        aln = Alignment(("a", "b"), codes)
        assert not aln.codes.flags.writeable
        assert codes.flags.writeable
        assert aln.n_sites == 2 and aln.counts == {"AG": 1, "CT": 1}


class TestSampledFasta:
    """``write_fasta(sample_alignment(...))`` against the pattern-string
    route it replaced, byte for byte."""

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_same_text_as_the_string_route(self, name, n):
        newick = "t1"
        for i in range(2, n + 1):
            newick = f"({newick},t{i})"
        tree, _ = from_newick(newick + ";")
        psi = joint_distribution(
            random_presentation(builtin_model(name), tree, n))
        for seed in range(3):
            for sites in (0, 1, 2000):
                got = write_fasta(sample_alignment(psi, sites, seed))
                assert got == fasta_by_pattern_strings(psi, sites, seed)

    def test_peak_memory_is_the_codes_and_three_tensors(self):
        tree, _ = from_newick("(((((((t1,t2),t3),t4),t5),t6),t7),t8);")
        psi = joint_distribution(
            random_presentation(builtin_model("K81"), tree, 1))
        sites = 10 ** 5
        peak = traced_peak(lambda: sample_alignment(psi, sites, 1))
        assert peak <= 8 * sites + 3 * psi.values.nbytes
