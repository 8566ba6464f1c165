from fractions import Fraction

import pytest

from floparr import (
    Arrangement,
    Hyperplane,
    MixedKinds,
    Overflow,
    arrangement_from_json,
    arrangement_to_json,
    build_affine,
    build_finite,
    parse_data,
    product_arrangement,
)
from floparr.arrangement import MAX_TRANSLATES, parse_radius, restrict_roots
from floparr.dynkin import MAX_RANK

from helpers import affine, central


def test_restrict_identity():
    data = parse_data("A2:J={}")
    assert restrict_roots(data) == [(0, 1), (1, 0), (1, 1)]


def test_restrict_a2_contract_middle():
    # both simple roots restrict to (1); duplicates are kept here
    data = parse_data("A2:J={1}")
    assert restrict_roots(data) == [(1,), (1,)]


def test_restrict_a3_contract_middle():
    # six roots: one restricts to zero and is dropped, two pairs collide
    data = parse_data("A3:J={1}")
    restricted = restrict_roots(data)
    assert sorted(restricted) == [(0, 1), (0, 1), (1, 0), (1, 0), (1, 1)]


def test_build_finite_dedupes_to_lines():
    arr = central("A3:J={1}")
    assert arr.dim == 2
    assert [h.normal for h in arr.hyperplanes] == [(0, 1), (1, 0), (1, 1)]
    assert all(h.level == 0 for h in arr.hyperplanes)
    assert arr.radius is None


def test_build_finite_full_a3():
    arr = central("A3:J={}")
    assert arr.dim == 3
    assert len(arr) == 6


def test_hyperplane_validation():
    with pytest.raises(ValueError):
        Hyperplane((0, 0), 0)


def test_repeated_hyperplane_rejected():
    # enumeration never crosses a doubled hyperplane, since flipping one
    # copy alone is empty: x = 0 twice gave 1 chamber where Zaslavsky gives 2
    with pytest.raises(ValueError, match="once"):
        Arrangement(1, None, (Hyperplane((1,), 0),) * 2)
    with pytest.raises(ValueError, match="once"):
        Arrangement(2, Fraction(1), (Hyperplane((0, 1), 0), Hyperplane((1, 0), 0), Hyperplane((0, 1), 0)))


X0, X1 = Hyperplane((1,), 0), Hyperplane((1,), 1)


@pytest.mark.parametrize(
    "dim, radius, planes",
    [
        (2, None, (Hyperplane((0, 1), 0), Hyperplane((1,), 0))),
        (1, Fraction(0), (X0,)),
        (1, Fraction(-1), (X0,)),
        (1, None, (X0, Hyperplane((2,), 0))),
        (1, Fraction(3), (X1, Hyperplane((2,), 2))),
        (1, None, (Hyperplane((-1,), 0),)),
        (1, None, (X1,)),
        (2, None, (Hyperplane((1, 0), 0), Hyperplane((0, 1), 0))),
        (0, None, ()),
        ("3", None, ()),
        (True, None, ()),
        (1, None, (Hyperplane([1], 0),)),
        (1, None, (Hyperplane((True,), 0),)),
        (1, Fraction(3), (Hyperplane((1,), True),)),
        (2, 1.5, (Hyperplane((0, 1), 0),)),
        (1, "3/2", (X0,)),
        (1, True, (X0,)),
        (1, None, (((1,), 0),)),
        (1, None, [X0]),
    ],
    ids=[
        "short normal",
        "radius 0",
        "radius -1",
        "x = 0 and 2x = 0",
        "x = 1 and 2x = 2",
        "unoriented normal",
        "central level 1",
        "out of order",
        "dim 0",
        "str dim",
        "bool dim",
        "list normal",
        "bool normal entry",
        "bool level",
        "float radius",
        "str radius",
        "bool radius",
        "plain pair",
        "list of hyperplanes",
    ],
)
def test_arrangement_checks_its_contract(dim, radius, planes):
    # the rules --in enforces hold for a direct Arrangement too; unchecked,
    # a short normal raises a bare IndexError in enumeration, and an empty
    # window or x = 0 with 2x = 0 enumerates 1 chamber (Zaslavsky gives 2).
    # Types are checked first: a str dim raised TypeError at the rank cap,
    # a list normal and a float radius failed inside enumeration, and a
    # bool normal entry was emitted as JSON true, which --in rejects.
    # A plain pair raised AttributeError, and a list built but did not hash
    with pytest.raises(ValueError):
        Arrangement(dim, radius, planes)


def test_normals_primitive_and_sorted():
    for text in ("A3:J={}", "D4:J={}", "A4:J={0,3}"):
        arr = central(text)
        seen = set()
        for h in arr.hyperplanes:
            from math import gcd
            g = 0
            for v in h.normal:
                g = gcd(g, abs(v))
            assert g == 1
            first = next(v for v in h.normal if v)
            assert first > 0
            seen.add((h.normal, h.level))
        assert len(seen) == len(arr)
        assert list(arr.hyperplanes) == sorted(arr.hyperplanes, key=lambda h: (h.normal, h.level))


def test_affine_a1_window():
    arr = affine("A1:J={}", Fraction(5, 2))
    assert [h.level for h in arr.hyperplanes] == [-2, -1, 0, 1, 2]
    assert arr.radius == Fraction(5, 2)
    assert arr.radius is not None


def test_affine_a2_radius_one():
    arr = affine("A2:J={}", Fraction(1))
    assert len(arr) == 9
    assert sum(1 for h in arr.hyperplanes if h.level == 0) == 3


def test_affine_a2_radius_three_halves():
    arr = affine("A2:J={}", Fraction(3, 2))
    assert len(arr) == 11
    # the long root picks up one extra translate on each side
    by_normal = {}
    for h in arr.hyperplanes:
        by_normal.setdefault(h.normal, []).append(h.level)
    assert by_normal[(0, 1)] == [-1, 0, 1]
    assert by_normal[(1, 0)] == [-1, 0, 1]
    assert by_normal[(1, 1)] == [-2, -1, 0, 1, 2]


def test_affine_level_zero_slice_is_finite_arrangement():
    for text in ("A2:J={}", "A3:J={1}", "A1:J={}"):
        data = parse_data(text)
        finite = build_finite(data)
        window = build_affine(data, Fraction(5, 2))
        level0 = [h for h in window.hyperplanes if h.level == 0]
        assert [h.normal for h in level0] == [h.normal for h in finite.hyperplanes]


def test_affine_rejects_nonpositive_radius():
    data = parse_data("A1:J={}")
    with pytest.raises(ValueError):
        build_affine(data, Fraction(0))
    with pytest.raises(ValueError):
        build_affine(data, Fraction(-1))


def test_affine_takes_an_exact_radius():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    data = parse_data("A1:J={}")
    for radius in (0.1, "3/2"):
        with pytest.raises(ValueError, match="int or a Fraction"):
            build_affine(data, radius)


def test_affine_translate_cap():
    # A1 in the window |x| < r has the 2r - 1 translates -(r - 1) .. r - 1
    data = parse_data("A1:J={}")
    r = (MAX_TRANSLATES + 1) // 2
    assert len(build_affine(data, r)) == 2 * r - 1 <= MAX_TRANSLATES
    with pytest.raises(Overflow, match=f"holds more than {MAX_TRANSLATES} hyperplanes"):
        build_affine(data, r + 1)
    with pytest.raises(Overflow):
        build_affine(data, Fraction(10) ** 400)
    # the count of this window has 4,301 digits, too many for str to write
    with pytest.raises(Overflow, match=f"holds more than {MAX_TRANSLATES} hyperplanes"):
        build_affine(parse_data("A2:J={}"), Fraction(3 * 10**4299))


def test_product_central():
    a = central("A1:J={}")
    prod = product_arrangement(a, a)
    assert prod.dim == 2
    assert [h.normal for h in prod.hyperplanes] == [(0, 1), (1, 0)]


def test_product_affine_counts():
    a2 = affine("A2:J={}", Fraction(3, 2))
    a1 = affine("A1:J={}", Fraction(3, 2))
    prod = product_arrangement(a2, a1)
    assert prod.dim == 3
    assert len(prod) == len(a2) + len(a1)
    assert prod.radius == Fraction(3, 2)


def test_product_mixed_kinds_rejected():
    a = central("A1:J={}")
    b = affine("A1:J={}", Fraction(5, 2))
    with pytest.raises(MixedKinds):
        product_arrangement(a, b)
    with pytest.raises(MixedKinds):
        product_arrangement(b, affine("A1:J={}", Fraction(3, 2)))


def test_json_round_trip_bit_exact():
    from floparr.arrangement import dumps

    for arr in (central("A3:J={}"), affine("A2:J={}", Fraction(7, 2))):
        doc = arrangement_to_json(arr)
        back = arrangement_from_json(doc)
        assert back == arr
        assert dumps(arrangement_to_json(back)) == dumps(doc)


def test_json_serialization_shape():
    from floparr.arrangement import dumps

    text = dumps(arrangement_to_json(affine("A1:J={}", Fraction(7, 2))))
    assert text.endswith("\n")
    assert '"7/2"' in text


def test_json_rejects_malformed():
    import copy

    good = arrangement_to_json(central("A2:J={}"))
    doc = copy.deepcopy(good)
    doc["hyperplanes"].append(doc["hyperplanes"][0])
    with pytest.raises(ValueError):
        arrangement_from_json(doc)
    doc2 = copy.deepcopy(good)
    doc2["hyperplanes"][0]["normal"] = [2, 4]
    with pytest.raises(ValueError):
        arrangement_from_json(doc2)


def _affine_doc(radius, normal=(1,), level=0):
    return {
        "dim": 1,
        "kind": {"affine": {"radius": radius}},
        "hyperplanes": [{"normal": list(normal), "level": level}],
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2, "kind": "central", "hyperplanes": [{"normal": [0, 0], "level": 0}]},
        _affine_doc("1/0"),
        _affine_doc(0.1),
        _affine_doc(True),
        _affine_doc("1", level=True),
        {"dim": True, "kind": "central", "hyperplanes": [{"normal": [1], "level": 0}]},
        {"dim": 1, "kind": "central", "hyperplanes": [{"normal": [True], "level": 0}]},
    ],
    ids=["zero normal", "radius 1/0", "float radius", "bool radius", "bool level", "bool dim", "bool normal"],
)
def test_json_rejects_non_exact_values(doc):
    with pytest.raises(ValueError):
        arrangement_from_json(doc)


def test_json_dim_capped():
    assert arrangement_from_json({"dim": MAX_RANK, "kind": "central", "hyperplanes": []}).dim == MAX_RANK
    with pytest.raises(Overflow, match=f"dim {MAX_RANK + 1} "):
        arrangement_from_json({"dim": MAX_RANK + 1, "kind": "central", "hyperplanes": []})
    # the cap sits on Arrangement, so a product cannot build what loading refuses
    with pytest.raises(Overflow, match="dim 70 "):
        product_arrangement(central("A40:J={}"), central("A30:J={}"))


def test_json_radius_string_or_int():
    assert arrangement_from_json(_affine_doc("7/2")).radius == Fraction(7, 2)
    assert arrangement_from_json(_affine_doc(2)).radius == 2
    # the --window parser is the same function
    for text, radius in (("7/2", Fraction(7, 2)), ("1.5", Fraction(3, 2)), ("1e-1", Fraction(1, 10)), (3, 3)):
        assert parse_radius(text) == radius
        assert arrangement_from_json(_affine_doc(text)).radius == radius
