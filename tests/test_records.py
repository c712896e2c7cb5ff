"""``Record`` against ``dataclasses``: every value class behaves as the
frozen dataclass with the same fields, defaults and ``eq`` would.

Each class gets a twin from ``dataclasses.make_dataclass`` with its
fields, defaults, ``eq`` and ``__post_init__``, and both are run on sample
instances from a small solve.  The twins' ``FrozenInstanceError`` is a
subclass of the ``AttributeError`` that ``Record`` raises.

``Record`` compares the field tuples, as dataclasses did up to Python 3.12.
From 3.13 a dataclass compares field by field (``self.a == other.a and
...``), which gives an array, or raises, where a tuple compare finds the
same ndarray on both sides and calls it equal.  There the twins are given
the tuple compare of 3.10-3.12, and ``test_tuple_eq_is_the_dataclass_eq``
checks it against the dataclass's own on 3.10-3.12.
"""

import dataclasses
import inspect
import itertools
import sys

import numpy as np
import pytest

from edgeinv.groups import builtin_model
from edgeinv.reconstruct import reconstruct_by_splits, reconstruct_exhaustive
from edgeinv.records import Record
from edgeinv.scores import edge_invariant_test, evaluate_generators, \
    generator_catalog, genericity_check, score_splits
from edgeinv.simulate import Alignment, joint_distribution, \
    random_presentation, sample_alignment
from edgeinv.tensors import PatternTensor
from edgeinv.trees import Bipartition, from_newick

RECORDS = {cls.__name__: cls for cls in Record.__subclasses__()
           if cls.__module__.startswith("edgeinv.")}


def test_every_value_class_is_a_record():
    assert sorted(RECORDS) == sorted([
        "Alignment", "Bipartition", "BlockCatalog", "EdgeTestReport",
        "EvolutionaryPresentation", "GeneratorCatalog", "GenericityEntry",
        "GenericityReport", "Irrep", "MinorEvaluation", "MultiplicityVector",
        "PatternTensor", "RankVector", "ReconstructionResult", "SplitScore"])


TUPLE_EQ = sys.version_info >= (3, 13)


def tuple_eq(self, other):
    """The ``__eq__`` that dataclasses generated up to 3.12: one compare of
    the two field tuples."""
    if other.__class__ is self.__class__:
        names = [f.name for f in dataclasses.fields(self)]
        return tuple(getattr(self, n) for n in names) \
            == tuple(getattr(other, n) for n in names)
    return NotImplemented


def twin(cls, eq_of_tuples: bool = TUPLE_EQ):
    """The frozen dataclass with ``cls``'s fields, defaults, ``eq`` and
    ``__post_init__``; with ``eq_of_tuples``, and ``eq``, its ``__eq__`` is
    ``tuple_eq`` (the hash stays the dataclass's)."""
    own = vars(cls)
    fields = [(n, kind, dataclasses.field(default=own[n])) if n in own
              else (n, kind)
              for n, kind in inspect.get_annotations(cls).items()]
    eq = cls.__eq__ is not object.__eq__
    namespace = {"__post_init__": own["__post_init__"]} \
        if "__post_init__" in own else {}
    if eq and eq_of_tuples:
        namespace["__eq__"] = tuple_eq
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, eq=eq)


TWINS = {name: twin(cls) for name, cls in RECORDS.items()}


def samples() -> dict:
    """Two or more instances of every value class, from a 6-leaf K81 solve
    and its pieces."""
    tree, _ = from_newick("(((1,2),3),(4,(5,6)));")
    other, _ = from_newick("(((1,4),3),(2,(5,6)));")
    model = builtin_model("K81")
    pres = [random_presentation(model, tree, seed) for seed in (1, 2)]
    psi = [joint_distribution(p) for p in pres]
    split = Bipartition([1, 2], 6)
    scores = list(score_splits(psi[0], model, [split, Bipartition([4], 6),
                                               Bipartition([1, 4], 6)])
                  .values())
    audits = [genericity_check(psi[0], model, tree),
              genericity_check(psi[1], model, other)]
    catalogs = [generator_catalog(model, 2, 2), generator_catalog(model, 1, 3)]
    found = [
        *model.irreps, model.multiplicities(1), model.multiplicities(2),
        split, Bipartition([3, 4, 5, 6], 6), Bipartition([1, 3], 6),
        *psi, *pres, *scores, *(s.achieved for s in scores if s.achieved),
        edge_invariant_test(psi[0], tree, model),
        edge_invariant_test(psi[0], other, model),
        *audits, *(e for a in audits for e in a.entries),
        *catalogs, *(b for c in catalogs for b in c.blocks),
        evaluate_generators(psi[0], split, model, 5),
        evaluate_generators(psi[0], split, model, 50),
        sample_alignment(psi[0], 20, 1), sample_alignment(psi[0], 20, 1),
        reconstruct_exhaustive(psi[0], model),
        reconstruct_by_splits(psi[0], model),
    ]
    out = {}
    for record in found:
        out.setdefault(type(record).__name__, []).append(record)
    return out


SAMPLES = samples()


def outcome(call):
    """A call's value, or the type of what it raised."""
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return "raised", type(exc)


def fields_of(record) -> dict:
    """A record's fields by name, in order, as its twin has them."""
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(TWINS[type(record).__name__])}


def copy_of(record):
    """An equal instance, made without the class's ``__init__``."""
    copy = object.__new__(type(record))
    copy.__dict__.update(record.__dict__)
    return copy


def beside(name, mirror) -> list:
    """Each sample record, then an equal copy of each that is not the same
    object, paired with an instance of ``mirror`` holding its fields."""
    both = []
    for record in SAMPLES[name] + list(map(copy_of, SAMPLES[name])):
        both.append((record, object.__new__(mirror)))
        both[-1][1].__dict__.update(fields_of(record))
    return both


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_eq_and_hash_match_the_dataclass(name):
    cls, mirror = RECORDS[name], TWINS[name]
    assert len(SAMPLES[name]) >= 2
    assert cls.__match_args__ == mirror.__match_args__
    both = beside(name, mirror)
    for (a, ta), (b, tb) in itertools.product(both, both):
        assert repr(a) == repr(ta)
        assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
        assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
        if cls.__eq__ is object.__eq__:
            assert hash(a) == object.__hash__(a)
        else:
            assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
    assert SAMPLES[name][0] != object()


@pytest.mark.skipif(TUPLE_EQ, reason="dataclasses compare field by field")
@pytest.mark.parametrize("name", sorted(
    n for n, cls in RECORDS.items() if cls.__eq__ is not object.__eq__))
def test_tuple_eq_is_the_dataclass_eq(name):
    ours = [t for _, t in beside(name, twin(RECORDS[name], True))]
    theirs = [t for _, t in beside(name, twin(RECORDS[name], False))]
    assert type(ours[0]).__eq__ is tuple_eq
    assert type(theirs[0]).__eq__ is not tuple_eq
    for i, j in itertools.product(range(len(ours)), repeat=2):
        a, b, ta, tb = ours[i], ours[j], theirs[i], theirs[j]
        assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
        assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))


@pytest.mark.parametrize("name", sorted(
    n for n, cls in RECORDS.items() if "__init__" not in vars(cls)))
def test_construction_matches_the_dataclass(name):
    cls, mirror = RECORDS[name], TWINS[name]
    assert str(inspect.signature(cls)) == str(inspect.signature(mirror))
    record = SAMPLES[name][0]
    values = fields_of(record)
    args = list(values.values())
    first = next(iter(values))
    required = sum(f.default is dataclasses.MISSING
                   for f in dataclasses.fields(mirror))
    calls = {
        "positional": lambda c: c(*args),
        "keyword": lambda c: c(**values),
        "defaults": lambda c: c(*args[:required]),
        "missing": lambda c: c(*args[:required - 1]),
        "none": lambda c: c(),
        "too many": lambda c: c(*args, None),
        "unknown": lambda c: c(*args, unknown=1),
        "repeated": lambda c: c(*args, **{first: args[0]}),
    }
    for how, call in calls.items():
        got, want = outcome(lambda: call(cls)), outcome(lambda: call(mirror))
        assert got[0] == want[0], how
        if got[0] == "raised":
            assert got[1] is want[1] is TypeError, how
        else:
            assert fields_of(got[1]).keys() == values.keys()
            assert repr(got[1]) == repr(want[1]), how


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_and_deletion_raise_attribute_error(name):
    record = SAMPLES[name][0]
    mirror = TWINS[name](**fields_of(record)) \
        if "__init__" not in vars(RECORDS[name]) else None
    for field in (*fields_of(record), "not_a_field"):
        before = getattr(record, field, None)
        for act in (lambda r: setattr(r, field, 1),
                    lambda r: delattr(r, field)):
            kind, error = outcome(lambda: act(record))
            assert (kind, error) == ("raised", AttributeError)
            if mirror is not None:
                assert issubclass(outcome(lambda: act(mirror))[1], error)
        assert getattr(record, field, None) is before


@pytest.mark.parametrize("name, bad", [
    ("PatternTensor", lambda c: c(np.ones(15), (1, 2))),
    ("PatternTensor", lambda c: c(np.ones(16), (1, 1))),
    ("PatternTensor", lambda c: c(values=-np.ones(16), labels=(1, 2),
                                  stochastic=True)),
    ("Alignment", lambda c: c(("a", "b"), np.zeros((3, 4), np.uint8))),
    ("Alignment", lambda c: c(taxa=("a",), codes=np.full((1, 2), 4))),
])
def test_post_init_still_rejects_bad_input(name, bad):
    assert outcome(lambda: bad(RECORDS[name])) \
        == outcome(lambda: bad(TWINS[name])) == ("raised", ValueError)


def test_post_init_normalizes_fields():
    psi = PatternTensor([0.25, 0.25, 0.25, 0.25], [1])
    assert isinstance(psi.values, np.ndarray) and psi.labels == (1,)
    assert not psi.values.flags.writeable and psi.stochastic is False


def test_alignment_compares_by_identity():
    a, b = SAMPLES["Alignment"]
    assert a.taxa == b.taxa and np.array_equal(a.codes, b.codes)
    assert a == a and a != b and a != copy_of(a)
    assert len({a, b, a}) == 2
    assert Alignment.__hash__ is object.__hash__


def test_equal_records_hash_alike_and_match_by_position():
    split = Bipartition([2, 3], 5)
    assert split == Bipartition([1, 4, 5], 5)
    assert hash(split) == hash((5, frozenset({2, 3})))
    match split:
        case Bipartition(n, side):
            assert (n, side) == (5, frozenset({2, 3}))
    assert {split: 1}[Bipartition.from_side(frozenset({2, 3}), 5)] == 1



class Empty(Record):
    pass


class Single(Record):
    value: object


@pytest.mark.parametrize("cls, args", [(Empty, ()), (Single, ([1, 2],)),
                                       (Single, ("x",))])
def test_records_of_no_or_one_field_hash_as_the_dataclass(cls, args):
    # the field tuple is a tuple here too, so the hash is the dataclass's
    mirror = dataclasses.make_dataclass(
        cls.__name__, list(inspect.get_annotations(cls)), frozen=True)
    a, b = cls(*args), mirror(*args)
    assert repr(a) == repr(b) and a == cls(*args)
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(b))
