"""Property-based tests for the CORDIC datapath."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.digital.cordic import CordicArctan, greedy_arctan_float
from repro.digital.fixed_point import require_fits, truncating_shift_right
from repro.errors import ProtocolError

CORDIC = CordicArctan()

counts = st.integers(min_value=0, max_value=4194)
nonzero_counts = st.integers(min_value=1, max_value=4194)
signed_counts = st.integers(min_value=-4194, max_value=4194)


class TestFirstQuadrantProperties:
    @given(y=counts, x=nonzero_counts)
    def test_result_bounded(self, y, x):
        angle = CORDIC.arctan_first_quadrant(y, x).angle_deg
        assert 0.0 <= angle <= CORDIC.max_angle_deg()

    @given(y=nonzero_counts, x=nonzero_counts)
    def test_within_one_degree_of_atan2(self, y, x):
        # The paper's accuracy claim as a universal property.
        angle = CORDIC.arctan_first_quadrant(y, x).angle_deg
        reference = math.degrees(math.atan2(y, x))
        assert abs(angle - reference) < 1.0

    @given(y=counts, x=nonzero_counts, scale=st.integers(min_value=2, max_value=8))
    def test_scale_invariance(self, y, x, scale):
        # §4: insensitive to field magnitude — scaling both counts moves
        # the result by less than the quantisation residual.  Scaled
        # inputs stay within the 24-bit register envelope the datapath is
        # sized for (counter values ≤ 4194).
        y, x = y // scale, max(1, x // scale)
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(y * scale, x * scale).angle_deg
        assert abs(a - b) < 0.9

    @given(y=nonzero_counts, x=nonzero_counts)
    def test_antisymmetry_via_complement(self, y, x):
        # atan(y/x) + atan(x/y) ≈ 90°.
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(x, y).angle_deg
        assert abs((a + b) - 90.0) < 1.5

    @given(y=counts, x=nonzero_counts)
    def test_cycles_always_eight(self, y, x):
        assert CORDIC.arctan_first_quadrant(y, x).cycles == 8

    @given(y=counts, x=nonzero_counts)
    def test_monotone_in_y(self, y, x):
        # Increasing y must never decrease the angle (up to LSB jitter).
        a = CORDIC.arctan_first_quadrant(y, x).angle_deg
        b = CORDIC.arctan_first_quadrant(y + 50, x).angle_deg
        assert b >= a - 0.5


class TestFullCircleProperties:
    @given(x=signed_counts, y=signed_counts)
    def test_range_and_accuracy(self, x, y):
        if x == 0 and y == 0:
            return
        angle = CORDIC.arctan_degrees(y, x)
        assert 0.0 <= angle < 360.0
        reference = math.degrees(math.atan2(y, x)) % 360.0
        err = abs((angle - reference + 180.0) % 360.0 - 180.0)
        assert err < 1.0

    @given(x=signed_counts, y=signed_counts)
    def test_point_reflection(self, x, y):
        # Rotating the input by 180° rotates the output by 180°.  Exact
        # in the quadrant interiors (same core value both times); on the
        # axes the greedy overshoot mirrors instead of cancelling, so the
        # bound is twice the algorithmic residual (2·atan(1/128) ≈ 0.9°).
        if x == 0 and y == 0:
            return
        a = CORDIC.arctan_degrees(y, x)
        b = CORDIC.arctan_degrees(-y, -x)
        tolerance = 1e-9 if (x != 0 and y != 0) else 0.9
        assert abs(abs(a - b) - 180.0) < tolerance


class TestFloatEquivalence:
    @given(y=counts, x=nonzero_counts)
    @settings(max_examples=50)
    def test_integer_tracks_float(self, y, x):
        # The ·128 fixed-point datapath stays within ~0.5° of the
        # infinite-precision greedy algorithm.
        integer = CORDIC.arctan_first_quadrant(y, x).angle_deg
        floating = greedy_arctan_float(float(y), float(x), 8)
        assert abs(integer - floating) < 0.75


def checked_angle_fixed(cordic, y, x):
    """The Figure 8 loop with every register checked as it is written:
    the per-iteration datapath the check-once form must equal."""
    width = cordic.register_width
    y_reg = require_fits(y << cordic.input_scale_bits, width, "y_reg")
    x_reg = require_fits(x << cordic.input_scale_bits, width, "x_reg")
    res = 0
    for i in range(cordic.iterations):
        if y_reg >= truncating_shift_right(x_reg, i):
            y_prev, x_prev = y_reg, x_reg
            y_reg = y_prev - truncating_shift_right(x_prev, i)
            x_reg = x_prev + truncating_shift_right(y_prev, i)
            require_fits(x_reg, width, "x_reg")
            require_fits(y_reg, width, "y_reg")
            res += cordic.rom[i]
    return res


def reference(cordic, y, x):
    """The checked loop's angle, or its error text."""
    try:
        return checked_angle_fixed(cordic, y, x)
    except ProtocolError as error:
        return str(error)


@st.composite
def narrow_rows(draw):
    """A CORDIC with 10-24-bit registers and 1-8 rows of inputs sized
    so that some of them overflow a register somewhere in the loop."""
    width = draw(st.integers(10, 24))
    cordic = CordicArctan(register_width=width)
    top = 1 << (width - cordic.input_scale_bits)
    pairs = draw(st.lists(
        st.tuples(st.integers(0, top), st.integers(0, top)).filter(any),
        min_size=1,
        max_size=8,
    ))
    return cordic, pairs


class TestCheckOnce:
    """One range check per call against the per-iteration check.

    ``y_reg`` never grows and stays non-negative and ``x_reg`` never
    shrinks, so checking the inputs and the final ``x_reg`` must flag
    exactly the rows the per-iteration check flags, with its message.
    """

    @given(narrow_rows(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_the_checked_loop(self, drawn, record_steps):
        cordic, pairs = drawn
        expected = [reference(cordic, y, x) for y, x in pairs]
        results, error = cordic.arctan_rows(pairs, record_steps)
        got = [result.angle_fixed for result in results]
        if error is not None:
            got.append(str(error))
            assert isinstance(error, ProtocolError)
        failing = [i for i, e in enumerate(expected) if isinstance(e, str)]
        assert got == expected[: failing[0] + 1 if failing else len(expected)]

    @given(narrow_rows())
    @settings(max_examples=400, deadline=None)
    def test_one_row_raises_the_checked_loop_error(self, drawn):
        cordic, pairs = drawn
        y, x = pairs[0]
        expected = reference(cordic, y, x)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as raised:
                cordic.arctan_first_quadrant(y, x)
            assert str(raised.value) == expected
        else:
            assert cordic.arctan_first_quadrant(y, x).angle_fixed == expected

    def test_overflow_inside_the_loop_is_caught(self):
        # Both inputs fit 12 bits, but the rotations grow x_reg past it.
        cordic = CordicArctan(register_width=12)
        with pytest.raises(ProtocolError, match="'x_reg' \\(12 bits\\) overflowed"):
            cordic.arctan_first_quadrant(15, 15)
