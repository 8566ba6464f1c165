import pytest

from floparr import (
    DynkinData,
    DynkinType,
    EmptySurvivingSet,
    InvalidType,
    cartan_matrix,
    parse_data,
    positive_roots,
)
from floparr.dynkin import diagram_edges

from helpers import coxeter_count, interval_roots


def test_cartan_a1():
    assert cartan_matrix(DynkinType("A", 1)) == ((2,),)


def test_cartan_a2():
    assert cartan_matrix(DynkinType("A", 2)) == ((2, -1), (-1, 2))


def test_cartan_d4_branch_node():
    m = cartan_matrix(DynkinType("D", 4))
    assert len(m) == 4
    assert [m[1][j] for j in range(4)] == [-1, 2, -1, -1]
    assert m[0][2] == m[0][3] == m[2][3] == 0


def test_cartan_symmetric_with_unit_diagonal():
    for delta in (DynkinType("A", 5), DynkinType("D", 6), DynkinType("E", 7)):
        m = cartan_matrix(delta)
        for i in range(delta.rank):
            assert m[i][i] == 2
            for j in range(delta.rank):
                assert m[i][j] == m[j][i]
                if i != j:
                    assert m[i][j] in (0, -1)


def test_diagrams_are_trees():
    for delta in (DynkinType("A", 4), DynkinType("D", 5), DynkinType("E", 8)):
        edges = diagram_edges(delta)
        assert len(edges) == delta.rank - 1
        assert len({frozenset(e) for e in edges}) == len(edges)


def test_e6_shape():
    assert sorted(diagram_edges(DynkinType("E", 6))) == [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_type_a_roots_match_interval_oracle(n):
    assert positive_roots(DynkinType("A", n)) == interval_roots(n)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)],
)
def test_root_counts_match_coxeter_formula(family, rank):
    assert len(positive_roots(DynkinType(family, rank))) == coxeter_count(family, rank)


def test_frozen_counts():
    counts = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "D4": 12, "E6": 36}
    for name, expected in counts.items():
        delta = DynkinType(name[0], int(name[1:]))
        assert len(positive_roots(delta)) == expected


def test_roots_sorted_nonnegative_nonzero():
    for delta in (DynkinType("A", 3), DynkinType("D", 4), DynkinType("E", 6)):
        roots = positive_roots(delta)
        assert list(roots) == sorted(roots)
        assert len(set(roots)) == len(roots)
        for r in roots:
            assert any(r) and min(r) >= 0


def test_roots_closed_under_reflections():
    # s_i sends any root to plus or minus another root
    for delta in (DynkinType("A", 3), DynkinType("D", 4)):
        roots = set(positive_roots(delta))
        signed = roots | {tuple(-v for v in r) for r in roots}
        cartan = cartan_matrix(delta)
        for beta in roots:
            for i in range(delta.rank):
                pairing = sum(cartan[i][j] * beta[j] for j in range(delta.rank))
                image = list(beta)
                image[i] -= pairing
                assert tuple(image) in signed


def test_a2_root_literal():
    assert positive_roots(DynkinType("A", 2)) == ((0, 1), (1, 0), (1, 1))
    assert positive_roots(DynkinType("A", 1)) == ((1,),)


def test_roots_computed_once_per_type():
    # search-figure restricts the roots of one type for every contracted
    # pair; equal types share one immutable tuple
    assert positive_roots(DynkinType("E", 8)) is positive_roots(DynkinType("E", 8))


@pytest.mark.parametrize("family,rank", [("B", 2), ("F", 4), ("A", 0), ("D", 3), ("E", 5), ("E", 9)])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(InvalidType):
        DynkinType(family, rank)


def test_data_round_trip():
    for text in ("A1:J={}", "D4:J={0,2}", "E6:J={0,2,4,5}", "A3:J={1}"):
        data = parse_data(text)
        assert str(data) == text
        assert parse_data(str(data)) == data


def test_data_formats_sorted():
    data = DynkinData(DynkinType("D", 4), frozenset({2, 0}))
    assert str(data) == "D4:J={0,2}"


def test_surviving_sorted():
    assert parse_data("A4:J={1,3}").surviving == (0, 2)
    assert parse_data("A4:J={}").surviving == (0, 1, 2, 3)


def test_parse_rejects_garbage():
    for bad in ("A3", "A3:J=", "A3:J={1,}", "x", "A3:J={a}", "a3:J={}"):
        with pytest.raises(InvalidType):
            parse_data(bad)


def test_contracted_nodes_validated():
    with pytest.raises(InvalidType):
        parse_data("A3:J={7}")


def test_empty_surviving_set():
    with pytest.raises(EmptySurvivingSet):
        parse_data("A2:J={0,1}")
