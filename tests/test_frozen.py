"""Every value type derives from ``Frozen``: no field can be assigned after
construction, ``_trusted`` fills the fields in ``__slots__`` order, and
``copy``, ``deepcopy`` and ``pickle`` rebuild an equal value."""

import copy
import pickle

import pytest

from aperiodic_lab.aut import identity_automorphism, transvection
from aperiodic_lab.graphs import enumerate_automorphisms
from aperiodic_lab.homology import Sublattice
from aperiodic_lab.rtt import filtration_of
from aperiodic_lab.splittings import graph_map_from_words, rose_marked
from aperiodic_lab.subgroups import (
    FreeFactorSystem,
    OrbitOutcome,
    fold_core,
    subgroup_class,
)
from aperiodic_lab.words import Alphabet, CyclicWord, Frozen, Substitution, Word, parse_word


def examples():
    alphabet = Alphabet(2)
    ab = parse_word(alphabet, "ab")
    marked = rose_marked(alphabet)
    graph_map = graph_map_from_words(marked, [ab, parse_word(alphabet, "a")])
    filtration = filtration_of(graph_map)
    return [
        alphabet,
        ab,
        CyclicWord(alphabet, (2, 1)),
        Substitution(alphabet, [ab, parse_word(alphabet, "a")]),
        transvection(alphabet, 1, 2),
        fold_core(alphabet, [ab]),
        subgroup_class(alphabet, [ab]),
        subgroup_class(alphabet, [ab])._cyclic_core,
        FreeFactorSystem(identity_automorphism(alphabet), [frozenset({1})]),
        OrbitOutcome("Period", 1, 3),
        Sublattice(2, [(1, 0)]),
        marked.graph,
        enumerate_automorphisms(marked.graph),
        enumerate_automorphisms(marked.graph)[-1],
        marked,
        graph_map,
        filtration,
        filtration.strata[0],
    ]


def all_subclasses(cls):
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | all_subclasses(sub)
    return found


def test_examples_cover_every_value_type():
    assert {type(x) for x in examples()} == all_subclasses(Frozen)


@pytest.mark.parametrize("value", examples(), ids=lambda x: type(x).__name__)
def test_every_field_is_read_only(value):
    name = type(value).__name__
    for field in [*type(value).__slots__, "extra"]:
        before = getattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, field, None)
        assert getattr(value, field, None) is before


@pytest.mark.parametrize("value", examples(), ids=lambda x: type(x).__name__)
def test_trusted_fills_slots_in_order(value):
    cls = type(value)
    fields = [getattr(value, field) for field in cls.__slots__]
    copy = cls._trusted(*fields)
    assert type(copy) is cls
    assert [getattr(copy, field) for field in cls.__slots__] == fields


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)


def same_value(a, b):
    """``a == b``, except that value types which compare by identity are
    compared field by field, and containers element by element."""
    if isinstance(a, Frozen) and type(a).__eq__ is object.__eq__:
        return type(a) is type(b) and all(
            same_value(getattr(a, f), getattr(b, f)) for f in type(a).__slots__
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(
            same_value(a[k], b[k]) for k in a
        )
    return a == b


@pytest.mark.parametrize("value", examples(), ids=lambda x: type(x).__name__)
@ROUND_TRIPS
def test_copy_and_pickle_round_trip(value, round_trip):
    clone = round_trip(value)
    assert type(clone) is type(value)
    assert same_value(clone, value)


@ROUND_TRIPS
def test_round_tripped_automorphism_applies_equally(round_trip):
    alphabet = Alphabet(2)
    phi = transvection(alphabet, 1, 2)
    long_word = parse_word(alphabet, "abaBBabbbAAbabAbaBab")
    before = phi.apply(long_word)  # fills the memos that travel along
    clone = round_trip(phi)
    for word in (long_word, parse_word(alphabet, "bA"), parse_word(alphabet, "1")):
        assert clone.apply(word) == phi.apply(word)
        assert clone.backward_map(word) == phi.backward_map(word)
    assert clone.apply(long_word) == before


def test_alphabet_cannot_strand_a_hashed_word():
    alphabet = Alphabet(2)
    word = Word(alphabet, (2,))
    seen = {word}
    with pytest.raises(AttributeError, match="Alphabet is immutable"):
        alphabet.rank = 1
    assert alphabet.rank == 2
    assert word in seen
