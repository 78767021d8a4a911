"""The record types: immutable named tuples with the hash, repr and keywords they always had."""

import pytest

from freeflood import (
    ColoredGraph,
    ColorOutOfRange,
    Counterexample,
    FloodMove,
    GridSpec,
    LemmaReport,
    Metrics,
    ReducedGraph,
    Solution,
    StateSpaceReport,
    ZoneMap,
)

PATH = ReducedGraph(adjacency=((1,), (0, 2), (1,)), colors=(0, 1, 0))

# one instance of each record type, its fields by keyword in declaration order
RECORDS = [
    (ColoredGraph, dict(adjacency=((1,), (0,)), colors=(0, 1), color_count=2)),
    (ReducedGraph, dict(adjacency=((1,), (0,)), colors=(1, 0))),
    (ZoneMap, dict(zone_of=(0, 0, 1), representative_of=(0, 2))),
    (FloodMove, dict(vertex=3, color=1)),
    (GridSpec, dict(rows=1, cols=2, cells=b"\x00\x01")),
    (Metrics, dict(eccentricity=(2, 1, 2), radius=1, center=(1,))),
    (Solution, dict(moves=(FloodMove(1, 0),), claimed_optimum=1, center_zone_representative=1)),
    (StateSpaceReport, dict(optimum=1, states_explored=3, exhausted=True)),
    (Counterexample, dict(graph=PATH, witness={"zone": 1}, detail="a detail")),
    (LemmaReport, dict(lemma="radius-bounds", instances_checked=3, counterexample=None)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keywords_and_positions_build_the_same_record(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert all(getattr(record, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields):
    record = cls(**fields)
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # a Counterexample's witness is a dict, so it never hashed
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_names_the_type_and_its_fields(cls, fields):
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


def test_lemma_report_defaults_to_no_counterexample():
    report = LemmaReport("far-witness", 0)
    assert report.counterexample is None and report.ok
    assert not LemmaReport("far-witness", 1, Counterexample(PATH, {}, "bad")).ok


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_are_tuples_of_their_fields(cls, fields):
    # the behavior the records gained: they iterate, unpack, order and equal a plain tuple
    assert tuple(cls(**fields)) == tuple(fields.values())


def test_records_unpack_and_order():
    vertex, color = FloodMove(3, 1)
    assert (vertex, color) == FloodMove(3, 1) == (3, 1)
    assert sorted([FloodMove(3, 1), FloodMove(0, 2)]) == [(0, 2), (3, 1)]


def test_grid_spec_replace_checks_its_fields():
    spec = GridSpec(1, 2, b"\x00\x01")
    assert spec._replace(cells=[1, 0]) == GridSpec(1, 2, b"\x01\x00")
    assert type(spec._replace(cells=[1, 0]).cells) is bytes
    with pytest.raises(ColorOutOfRange):
        spec._replace(cells=[0, 12])

