from fractions import Fraction

import pytest

from floparr import NotRankTwo, arrangement_svg, enumerate_chambers
from floparr.svgplot import _clip, _dec

from helpers import affine, central


def test_dec_exact_three_places():
    assert _dec(Fraction(1, 2)) == "0.500"
    assert _dec(Fraction(-1, 3)) == "-0.333"
    assert _dec(Fraction(2, 3)) == "0.667"
    assert _dec(Fraction(0)) == "0.000"
    assert _dec(Fraction(300)) == "300.000"


def test_clip_diagonal():
    # x + y = 0 across the unit box hits opposite corners
    a, b = _clip((1, 1), 0, Fraction(1))
    assert {a, b} == {(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(-1))}


def test_clip_axis():
    a, b = _clip((1, 0), 0, Fraction(1))
    assert {a, b} == {(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))}


def test_clip_misses_box():
    # x = 5 lies outside the unit box, and x + y = 2 touches it only at (1, 1)
    assert _clip((1, 0), 5, Fraction(1)) is None
    assert _clip((1, 1), 2, Fraction(1)) is None


def test_rejects_wrong_dimension():
    with pytest.raises(NotRankTwo):
        arrangement_svg(central("A3:J={}"))
    with pytest.raises(NotRankTwo):
        arrangement_svg(central("A1:J={}"))


def test_one_line_element_per_hyperplane():
    arr = affine("A2:J={}", Fraction(1))
    svg = arrangement_svg(arr)
    assert svg.count("<line") == len(arr) == 9
    assert svg.count('class="level0"') == 3
    assert svg.count('class="shift"') == 6


def test_central_plot_all_level0():
    svg = arrangement_svg(central("A2:J={}"))
    assert svg.count("<line") == 3
    assert svg.count('class="shift"') == 0


def test_chamber_overlay_dots():
    arr = affine("A2:J={}", Fraction(3, 2))
    g = enumerate_chambers(arr)
    svg = arrangement_svg(arr, g)
    assert svg.count("<circle") == len(g.chambers)


def test_svg_is_deterministic():
    arr = affine("A2:J={}", Fraction(3, 2))
    assert arrangement_svg(arr) == arrangement_svg(arr)
