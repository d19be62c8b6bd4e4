"""Every value type derives from ``Frozen``: no field can be assigned after
construction, and ``_trusted`` fills the fields in ``__slots__`` order."""

import pytest

from aperiodic_lab.aut import OuterClass, identity_automorphism, transvection
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
from aperiodic_lab.words import Alphabet, CyclicWord, Frozen, Word, parse_word


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
        transvection(alphabet, 1, 2),
        OuterClass(transvection(alphabet, 1, 2)),
        fold_core(alphabet, [ab]),
        subgroup_class(alphabet, [ab]),
        FreeFactorSystem(identity_automorphism(alphabet), [frozenset({1})]),
        OrbitOutcome("Period", 1, 3),
        Sublattice(2, [(1, 0)]),
        marked.graph,
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


def test_alphabet_cannot_strand_a_hashed_word():
    alphabet = Alphabet(2)
    word = Word(alphabet, (2,))
    seen = {word}
    with pytest.raises(AttributeError, match="Alphabet is immutable"):
        alphabet.rank = 1
    assert alphabet.rank == 2
    assert word in seen
