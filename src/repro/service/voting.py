"""K-of-N heading voting on the circle.

Headings are angles, so naive statistics lie: the arithmetic median of
(359°, 1°, 3°) is 3°, but the *circular* median is 1°.  Every statistic
here therefore works on unit vectors / circular distances:

* :func:`circular_mean_deg` — the direction of the vector sum;
* :func:`circular_median_deg` — the sample heading minimising the sum
  of absolute circular distances to the others (the geometric median of
  the sample restricted to sample points — exact for the small N a
  replica pool has);
* :func:`circular_mad_deg` — median absolute circular deviation, the
  robust spread estimate behind outlier rejection;
* :func:`vote_headings` — the full vote: median → MAD-scaled outlier
  rejection → circular mean of the inliers, with the maximum inlier
  deviation reported as *dissent*.

The median/MAD combination keeps its breakdown point at ⌊(N−1)/2⌋: with
any minority of replicas arbitrarily wrong, the vote lands on the honest
majority — exactly the redundancy argument of the magnetoresistor-array
tracker in PAPERS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..units import angular_difference_deg, wrap_degrees

#: Outlier-rejection floor of the vote [deg]: counter-quantisation
#: disagreement (a few tenths of a degree) never ejects an honest vote.
VOTE_OUTLIER_DEG = 5.0
#: MAD multiplier that widens the threshold when the whole pool
#: legitimately disagrees (e.g. a weak polar field).
VOTE_MAD_SCALE = 3.0


def circular_mean_deg(headings_deg: Sequence[float]) -> float:
    """Direction of the unit-vector sum [deg in [0, 360)]."""
    if not headings_deg:
        raise ConfigurationError("cannot average zero headings")
    s = sum(math.sin(math.radians(h)) for h in headings_deg)
    c = sum(math.cos(math.radians(h)) for h in headings_deg)
    if math.hypot(s, c) < 1e-12:
        raise ConfigurationError(
            "headings are uniformly opposed; circular mean undefined"
        )
    return wrap_degrees(math.degrees(math.atan2(s, c)))


def circular_median_deg(headings_deg: Sequence[float]) -> float:
    """Sample heading minimising total circular distance to the rest.

    Ties break toward the earliest sample, keeping the vote
    deterministic for a fixed reply order.
    """
    if not headings_deg:
        raise ConfigurationError("cannot take the median of zero headings")
    best_heading = headings_deg[0]
    best_cost = math.inf
    for candidate in headings_deg:
        cost = sum(
            abs(angular_difference_deg(candidate, other))
            for other in headings_deg
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_heading = candidate
    return wrap_degrees(best_heading)


def circular_mad_deg(
    headings_deg: Sequence[float], center_deg: float
) -> float:
    """Median absolute circular deviation from ``center_deg`` [deg]."""
    if not headings_deg:
        raise ConfigurationError("cannot take the MAD of zero headings")
    deviations = sorted(
        abs(angular_difference_deg(h, center_deg)) for h in headings_deg
    )
    n = len(deviations)
    middle = n // 2
    if n % 2 == 1:
        return deviations[middle]
    return 0.5 * (deviations[middle - 1] + deviations[middle])


@dataclass(frozen=True)
class VoteResult:
    """Outcome of one K-of-N heading vote.

    Attributes
    ----------
    heading_deg:
        Circular mean of the inlier headings, [0, 360).
    inliers, outliers:
        Indices into the submitted heading sequence.
    dissent_deg:
        Maximum circular deviation of any inlier from the voted
        heading — the honest disagreement left after outlier rejection.
    mad_deg:
        The MAD spread the rejection threshold was derived from.
    threshold_deg:
        The deviation beyond which a vote was declared an outlier.
    """

    heading_deg: float
    inliers: Tuple[int, ...]
    outliers: Tuple[int, ...]
    dissent_deg: float
    mad_deg: float
    threshold_deg: float

    @property
    def unanimous(self) -> bool:
        return not self.outliers


def vote_headings(headings_deg: Sequence[float]) -> VoteResult:
    """Robust vote over replica headings.

    The rejection threshold is ``max(VOTE_OUTLIER_DEG, VOTE_MAD_SCALE ×
    MAD)``: the floor keeps counter-quantisation disagreement (a few
    tenths of a degree) from ever ejecting an honest replica, the MAD
    term lets the threshold widen when the whole pool legitimately
    disagrees (e.g. a weak polar field).
    """
    if not headings_deg:
        raise ConfigurationError("cannot vote over zero headings")
    median = circular_median_deg(headings_deg)
    mad = circular_mad_deg(headings_deg, median)
    threshold = max(VOTE_OUTLIER_DEG, VOTE_MAD_SCALE * mad)
    inliers: List[int] = []
    outliers: List[int] = []
    for index, heading in enumerate(headings_deg):
        if abs(angular_difference_deg(heading, median)) <= threshold:
            inliers.append(index)
        else:
            outliers.append(index)
    voted = circular_mean_deg([headings_deg[i] for i in inliers])
    dissent = max(
        abs(angular_difference_deg(headings_deg[i], voted)) for i in inliers
    )
    return VoteResult(
        heading_deg=voted,
        inliers=tuple(inliers),
        outliers=tuple(outliers),
        dissent_deg=dissent,
        mad_deg=mad,
        threshold_deg=threshold,
    )


__all__ = [
    "VOTE_MAD_SCALE",
    "VOTE_OUTLIER_DEG",
    "VoteResult",
    "circular_mad_deg",
    "circular_mean_deg",
    "circular_median_deg",
    "vote_headings",
]
