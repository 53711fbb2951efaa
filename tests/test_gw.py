import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwbinom.gw import (
    NONSQUARE,
    NONSQUARE_UNIT,
    ONE,
    SQUARE,
    ZERO,
    GWElem,
    gw_display,
    gw_from_coeffs,
    gw_to_json,
    trace_form_class,
)

ALL_SMALL = [GWElem(r, d) for r in range(-8, 9) for d in (SQUARE, NONSQUARE)]


def test_from_coeffs_units():
    assert gw_from_coeffs(1, 0) == ONE == GWElem(1, SQUARE)
    assert gw_from_coeffs(0, 1) == NONSQUARE_UNIT == GWElem(1, NONSQUARE)


def test_from_coeffs_triangle_entry():
    x = gw_from_coeffs(53, 3)
    assert x == GWElem(56, NONSQUARE)
    assert gw_display(x) == "55+u"


def test_from_coeffs_equality_law():
    # (a, b) and (a', b') give the same class iff the rank and the parity
    # of the u-coefficient agree
    pairs = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for (a, b), (a2, b2) in itertools.product(pairs, repeat=2):
        same = gw_from_coeffs(a, b) == gw_from_coeffs(a2, b2)
        assert same == (a + b == a2 + b2 and (b - b2) % 2 == 0)


def test_two_u_equals_two():
    assert gw_from_coeffs(0, 2) == gw_from_coeffs(2, 0)


def test_u_squared_is_one():
    assert NONSQUARE_UNIT * NONSQUARE_UNIT == ONE


def test_add_examples():
    assert GWElem(1, NONSQUARE) + GWElem(1, NONSQUARE) == GWElem(2, SQUARE)
    assert gw_display(GWElem(1, NONSQUARE) + GWElem(1, NONSQUARE)) == "2"
    assert GWElem(1, SQUARE) + ZERO == GWElem(1, SQUARE)


def test_two_times_u_minus_one_is_zero():
    u_minus_one = gw_from_coeffs(-1, 1)
    for c in range(-6, 7, 2):
        assert GWElem(c, SQUARE) * u_minus_one == ZERO
    assert GWElem(6, SQUARE) + GWElem(2, SQUARE) * u_minus_one == GWElem(6, SQUARE)


def test_mul_examples():
    assert GWElem(1, NONSQUARE) * GWElem(2, NONSQUARE) == GWElem(2, NONSQUARE)
    x = GWElem(5, NONSQUARE)
    assert x * ONE == x


def test_ring_axioms_exhaustive():
    for x, y in itertools.product(ALL_SMALL, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in itertools.product(ALL_SMALL, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_rank_is_ring_hom_and_disc_additive():
    for x, y in itertools.product(ALL_SMALL, repeat=2):
        assert (x + y).rank == x.rank + y.rank
        assert (x * y).rank == x.rank * y.rank
        assert (x + y).disc == (x.disc + y.disc) % 2


def test_sub_and_neg():
    for x, y in itertools.product(ALL_SMALL, repeat=2):
        assert (x - y) + y == x
        assert -x + x == ZERO


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ops_match_coefficient_expansion(a, b, c, d):
    # oracle: compute on coefficient pairs, then normalize
    x, y = gw_from_coeffs(a, b), gw_from_coeffs(c, d)
    assert x + y == gw_from_coeffs(a + c, b + d)
    assert x * y == gw_from_coeffs(a * c + b * d, a * d + b * c)
    assert x - y == gw_from_coeffs(a - c, b - d)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-20, 20))
def test_scale_matches_repeated_addition(a, b, c):
    x = gw_from_coeffs(a, b)
    assert GWElem(c, SQUARE) * x == gw_from_coeffs(c * a, c * b)


def test_trace_form_class_small():
    assert trace_form_class(1) == GWElem(1, SQUARE)
    assert trace_form_class(2) == GWElem(2, NONSQUARE)
    assert gw_display(trace_form_class(2)) == "1+u"
    assert trace_form_class(3) == GWElem(3, SQUARE)


def test_trace_form_class_rejects_nonpositive():
    with pytest.raises(ValueError):
        trace_form_class(0)
    with pytest.raises(ValueError):
        trace_form_class(-3)


def test_display():
    assert gw_display(GWElem(6, SQUARE)) == "6"
    assert gw_display(GWElem(4, NONSQUARE)) == "3+u"
    assert gw_display(GWElem(1, NONSQUARE)) == "u"
    assert gw_display(ZERO) == "0"


def test_display_unrepresentable():
    with pytest.raises(ValueError):
        gw_display(GWElem(0, NONSQUARE))
    with pytest.raises(ValueError):
        gw_display(GWElem(-2, SQUARE))


def test_str_uses_display_convention():
    assert str(GWElem(56, NONSQUARE)) == "55+u"
    assert str(ZERO) == "0"


def test_json_rendering():
    assert gw_to_json(GWElem(56, NONSQUARE)) == {
        "rank": 56,
        "disc": "nonsquare",
        "display": "55+u",
    }
    assert gw_to_json(GWElem(6, SQUARE)) == {"rank": 6, "disc": "square", "display": "6"}


def test_invalid_disc_rejected():
    with pytest.raises(ValueError):
        GWElem(1, 2)
    with pytest.raises(TypeError):
        GWElem(1.0, SQUARE)
