"""The public records: immutable, checked on construction, tuples underneath."""

from fractions import Fraction

import pytest

from floparr import (
    Arrangement,
    CheckReport,
    DynkinData,
    DynkinType,
    EmptySurvivingSet,
    Hyperplane,
    InvalidType,
    MutationLabel,
    Overflow,
    Perm,
    PositivePath,
    build_affine,
    build_finite,
    enumerate_chambers,
    generators,
    intersection_poset,
    parse_data,
    word_of_path,
)


def _records():
    data = parse_data("A2:J={}")
    graph = enumerate_chambers(build_finite(data))
    arr = graph.arrangement
    path = PositivePath(0, (graph.out_edges(0)[0].id,))
    return [
        (data.delta, "family rank"),
        (data, "delta contracted"),
        (arr.hyperplanes[0], "normal level"),
        (arr, "dim radius hyperplanes"),
        (graph.chambers[0], "id signs witness boundary"),
        (graph.edges[0], "id source target hyperplane"),
        (intersection_poset(arr).flats[0], "members dim"),
        (path, "source edges"),
        (MutationLabel(("M0", "M1")), "symbols"),
        (word_of_path(path), "base letters"),
        (generators(graph)[0], "atom wall loop"),
        (CheckReport(1, ()), "checked failures"),
        (Perm((1, 0)), "images"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_are_read_only(record, fields):
    for field in fields.split():
        getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


def test_perm_equality_and_repr():
    perm = Perm((1, 0))
    assert perm == Perm((1, 0, 2)) and hash(perm) == hash(Perm((1, 0, 2)))
    assert repr(perm) == "Perm(images=(1, 0))"


def test_constructor_errors():
    with pytest.raises(ValueError):
        Hyperplane((0, 0), 0)
    with pytest.raises(Overflow):
        Arrangement(65, None, ())
    with pytest.raises(InvalidType):
        DynkinType("B", 3)
    with pytest.raises(InvalidType):
        DynkinData(DynkinType("A", 2), {5})
    with pytest.raises(EmptySurvivingSet):
        DynkinData(DynkinType("A", 2), {0, 1})
    with pytest.raises(ValueError):
        Perm((0, 0))


@pytest.mark.parametrize(
    "make",
    [lambda: Perm((1, 0))._replace(images=(0, 0)), lambda: Perm([1, 0]), lambda: Perm((True, False))],
    ids=["_replace with a non-permutation", "list of images", "bool images"],
)
def test_perm_refuses_what_its_constructor_refuses(make):
    # _replace used to skip the check, and str() of the result never returned
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: build_finite(parse_data("A2:J={}"))._replace(dim=0, radius=Fraction(-1)), ValueError),
        (lambda: Hyperplane((1, 0), 0)._replace(normal=(0, 0)), ValueError),
        (lambda: DynkinType("A", 2)._replace(family="Z"), InvalidType),
        (lambda: parse_data("A2:J={}")._replace(contracted={7}), InvalidType),
    ],
    ids=["Arrangement", "Hyperplane", "DynkinType", "DynkinData"],
)
def test_replace_runs_the_constructor_checks(make, error):
    # each call used to return a record that broke its contract
    with pytest.raises(error):
        make()


def test_perm_replace_keeps_the_canonical_form():
    assert Perm((1, 0))._replace(images=(0, 2, 1)).images == (0, 2, 1)
    assert Perm._make([(1, 0, 2)]) == Perm((1, 0)) and Perm._make([(1, 0, 2)]).images == (1, 0)


def test_contracted_is_a_frozenset():
    data = DynkinData(DynkinType("A", 3), {0})
    assert type(data.contracted) is frozenset and data.contracted == {0}
    assert type(data._replace(contracted={2}).contracted) is frozenset
    assert data.surviving == (1, 2)


def test_len_str_and_ok():
    data = parse_data("D4:J={0,2}")
    assert str(data) == "D4:J={0,2}" and str(data.delta) == "D4"
    assert len(build_affine(parse_data("A2:J={}"), Fraction(1))) == 9
    assert len(PositivePath(3, (0, 4))) == 2 and len(PositivePath(3, ())) == 0
    assert CheckReport(2, ()).ok and not CheckReport(2, (1,)).ok


def test_records_are_tuples():
    # a record equals the plain tuple of its fields and orders like it,
    # which is the (normal, level) order that arrangements sort by
    assert Hyperplane((1, 0), 0) == ((1, 0), 0)
    assert sorted([Hyperplane((1, 0), -1), Hyperplane((0, 1), 2), Hyperplane((0, 1), -2)]) == [
        ((0, 1), -2),
        ((0, 1), 2),
        ((1, 0), -1),
    ]
