"""Bit-accurate CORDIC-like arctangent datapath (Figure 8, §4).

"The arctangent part gets an x- and an y-value from the up-down counter
and computes arctan(x/y), using a cordic-like algorithm [Spa76].  It used
only 8 cycles to calculate the direction with an accuracy of one degree."

The VHDL of Figure 8, transliterated:

.. code-block:: vhdl

    y_reg := y * 128;  x_reg := x * 128;
    res := 0;  count := 0;  shift := 1;
    while count /= 8 loop
      if y_reg >= (x_reg / shift) then
        y_reg := y_prev - x_prev / shift;
        x_reg := x_prev + y_prev / shift;
        res   := res + atanrom(shift);
      end if;
      count := count + 1;  shift := shift * 2;
    end loop;

Properties worth noting (all reproduced bit-exactly here):

* the rotations are **greedy and unidirectional** — the datapath only
  rotates clockwise, when doing so keeps ``y`` non-negative; this saves
  the sign-tracking of a conventional CORDIC at the cost of a slightly
  larger residual,
* the ``·128`` input scaling provides 7 fractional bits so the truncating
  integer divisions by ``shift`` (up to 128) do not starve late
  iterations,
* the angle accumulates in ROM units (fixed-point degrees),
* the quadrant is recovered from the input signs before the core runs —
  this is the "calculation method is insensitive to local variations of
  the magnitude of the earths magnetic field" (§4): only the *ratio* of
  the counter values enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ProtocolError, ReproError, only_row
from ..units import CORDIC_ITERATIONS, heading_error_deg
from .atan_rom import ANGLE_FRAC_BITS, build_rom, max_representable_angle_deg
from .fixed_point import from_fixed, require_fits, signed_max, truncating_shift_right


@dataclass(frozen=True)
class CordicStep:
    """State after one CORDIC iteration (for tests and the FIG8 bench)."""

    iteration: int
    shift: int
    rotated: bool
    x_reg: int
    y_reg: int
    angle_fixed: int


@dataclass(frozen=True)
class CordicResult:
    """Output of one arctangent computation."""

    angle_deg: float
    angle_fixed: int
    cycles: int
    steps: Tuple[CordicStep, ...]


class CordicArctan:
    """The Figure 8 datapath with configurable precision knobs.

    Parameters
    ----------
    iterations:
        Number of rotation cycles; the paper uses 8.  §4: "The pulse count
        part and the arctan part can be modified easily to compute the
        direction with an arbitrary precision" — raising this is that
        modification.
    input_scale_bits:
        The pre-shift applied to the counter inputs (7 → the paper's
        ``· 128``).
    angle_frac_bits:
        Fixed-point resolution of the angle accumulator and ROM.
    register_width:
        Width of the x/y working registers; overflow raises
        :class:`~repro.errors.ProtocolError` like a lint-stage assertion
        in the original design flow would.
    """

    def __init__(
        self,
        iterations: int = CORDIC_ITERATIONS,
        input_scale_bits: int = 7,
        angle_frac_bits: int = ANGLE_FRAC_BITS,
        register_width: int = 24,
    ):
        if iterations < 1:
            raise ConfigurationError("need at least one CORDIC iteration")
        if not 0 <= input_scale_bits <= 16:
            raise ConfigurationError("input scale bits must be 0..16")
        self.iterations = iterations
        self.input_scale_bits = input_scale_bits
        self.angle_frac_bits = angle_frac_bits
        self.register_width = register_width
        self.rom = build_rom(iterations, angle_frac_bits)

    # -- core first-quadrant datapath ------------------------------------------

    def arctan_first_quadrant(
        self, y: int, x: int, record_steps: bool = False
    ) -> CordicResult:
        """``atan(y/x)`` for non-negative integer inputs, bit-accurate.

        A one-row :meth:`arctan_rows`.

        Raises
        ------
        ProtocolError
            If both inputs are zero (no field — the hardware flags this as
            an invalid measurement) or a register overflows.
        """
        if y < 0 or x < 0:
            raise ConfigurationError(
                "first-quadrant datapath needs non-negative inputs; "
                "use arctan_degrees for signed values"
            )
        if y == 0 and x == 0:
            raise ProtocolError("arctan(0/0): no field measured on either axis")
        return only_row(self.arctan_rows(((y, x),), record_steps))

    def arctan_rows(
        self, pairs: Sequence[Tuple[int, int]], record_steps: bool = False
    ) -> Tuple[List[CordicResult], Optional[ReproError]]:
        """``atan(y/x)`` of every ``(y, x)`` row, bit-accurate.

        Each pair is non-negative and not ``(0, 0)``; the back end's
        minimum-count threshold guarantees both.  Returns the results of
        the rows before the first row whose registers overflow, and that
        row's :class:`ProtocolError` (``None`` when every row fits).

        The register range is checked once per call.  A rotation only
        subtracts from ``y_reg`` and keeps it non-negative, and only adds
        to ``x_reg``, so the two inputs and the final ``x_reg`` bound
        every value either register takes.  A row beyond the range runs
        again through the per-iteration check, so its error names the
        register and value that overflowed first.  The per-iteration
        loop also records the steps, when asked.
        """
        scale = self.input_scale_bits
        rom = self.rom
        iterations = range(self.iterations)
        results: List[CordicResult] = []
        peaks: List[int] = []
        for y, x in pairs:
            if record_steps:
                try:
                    results.append(self._rotate_checked(y, x, True))
                except ProtocolError as error:
                    return results, error.with_traceback(None)
                continue
            y_reg = y << scale
            x_reg = x << scale
            peaks.append(y_reg)
            res = 0
            for i in iterations:
                if y_reg >= x_reg >> i:
                    y_reg, x_reg = y_reg - (x_reg >> i), x_reg + (y_reg >> i)
                    res += rom[i]
            peaks.append(x_reg)
            results.append(
                CordicResult(
                    angle_deg=from_fixed(res, self.angle_frac_bits),
                    angle_fixed=res,
                    cycles=self.iterations,
                    steps=(),
                )
            )
        if peaks and max(peaks) > signed_max(self.register_width):
            for row, (y, x) in enumerate(pairs):
                try:
                    self._rotate_checked(y, x, False)
                except ProtocolError as error:
                    return results[:row], error.with_traceback(None)
        return results, None

    def _rotate_checked(self, y: int, x: int, record_steps: bool) -> CordicResult:
        """The Figure 8 loop with every register checked as it is written."""
        width = self.register_width
        y_reg = require_fits(y << self.input_scale_bits, width, "y_reg")
        x_reg = require_fits(x << self.input_scale_bits, width, "x_reg")
        res = 0
        steps: List[CordicStep] = []

        for i in range(self.iterations):
            rotated = False
            if y_reg >= truncating_shift_right(x_reg, i):
                y_prev, x_prev = y_reg, x_reg
                y_reg = y_prev - truncating_shift_right(x_prev, i)
                x_reg = x_prev + truncating_shift_right(y_prev, i)
                require_fits(x_reg, width, "x_reg")
                require_fits(y_reg, width, "y_reg")
                res += self.rom[i]
                rotated = True
            if record_steps:
                steps.append(
                    CordicStep(
                        iteration=i,
                        shift=1 << i,
                        rotated=rotated,
                        x_reg=x_reg,
                        y_reg=y_reg,
                        angle_fixed=res,
                    )
                )

        return CordicResult(
            angle_deg=from_fixed(res, self.angle_frac_bits),
            angle_fixed=res,
            cycles=self.iterations,
            steps=tuple(steps),
        )

    # -- full-circle wrappers -------------------------------------------------

    def arctan_degrees(self, y: int, x: int) -> float:
        """Four-quadrant ``atan2(y, x)`` in compass range [0, 360) degrees.

        The quadrant folder is two sign checks and a subtraction — the
        cheap combinational logic wrapped around the Figure 8 core.
        """
        core = self.arctan_first_quadrant(abs(y), abs(x)).angle_deg
        return self.fold_quadrant(core, y, x)

    @staticmethod
    def fold_quadrant(core_deg: float, y: int, x: int) -> float:
        """Map the first-quadrant angle of ``(|y|, |x|)`` onto ``atan2(y, x)``
        in [0, 360) degrees."""
        if x >= 0 and y >= 0:
            angle = core_deg
        elif x < 0 <= y:
            angle = 180.0 - core_deg
        elif x < 0 and y < 0:
            angle = 180.0 + core_deg
        else:
            angle = 360.0 - core_deg
        return angle % 360.0

    def heading_degrees(self, x_count: int, y_count: int) -> float:
        """Compass heading from the two up-down counter values [degrees].

        With the conventions of :mod:`repro.sensors.pair` —
        ``x_count ∝ H·cos(heading)``, ``y_count ∝ −H·sin(heading)`` — the
        heading is ``atan2(−y_count, x_count)`` mapped to [0, 360).
        """
        return self.arctan_degrees(-y_count, x_count)

    # -- characterisation helpers ------------------------------------------------

    def max_angle_deg(self) -> float:
        """Largest first-quadrant angle the datapath can emit."""
        return max_representable_angle_deg(self.iterations, self.angle_frac_bits)

    def worst_case_error_deg(
        self, magnitude: int = 1000, step_deg: float = 0.25
    ) -> float:
        """Empirical worst-case heading error over a dense angle sweep.

        Sweeps ideal integer inputs of a given magnitude around the full
        circle and compares against ``math.atan2`` — the experiment behind
        the paper's "accuracy of one degree" claim (bench FIG8).
        """
        if magnitude < 1:
            raise ConfigurationError("magnitude must be >= 1")
        worst = 0.0
        angle = 0.0
        while angle < 360.0:
            rad = math.radians(angle)
            x = int(round(magnitude * math.cos(rad)))
            y = int(round(magnitude * math.sin(rad)))
            if x == 0 and y == 0:
                angle += step_deg
                continue
            got = self.arctan_degrees(y, x)
            ref = math.degrees(math.atan2(y, x)) % 360.0
            worst = max(worst, heading_error_deg(got, ref))
            angle += step_deg
        return worst


def greedy_arctan_float(y: float, x: float, iterations: int) -> float:
    """The same greedy algorithm with an infinite-precision datapath.

    Separates the *algorithmic* residual (greedy unidirectional rotations)
    from the *quantisation* residual (the ``·128`` scaling and truncating
    divisions) in the FIG8 ablation.
    """
    if y < 0.0 or x < 0.0:
        raise ConfigurationError("first-quadrant inputs required")
    if y == 0.0 and x == 0.0:
        raise ProtocolError("arctan(0/0) undefined")
    res = 0.0
    for i in range(iterations):
        scale = 2.0**-i
        if y >= x * scale:
            y, x = y - x * scale, x + y * scale
            res += math.degrees(math.atan(scale))
    return res
