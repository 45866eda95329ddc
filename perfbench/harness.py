"""The round loop, op accounting and output digests shared by every workload.

A workload is a list of distinct round inputs plus ``run_round(index)``.
A timed phase cycles through the inputs until its time is up; the first
result of each input is kept, and every later round of the same input
must reproduce its output digest exactly.  The same table serves the
traced phase, so a traced round that drifts from its untraced twin is a
correctness failure, not a number.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class RoundResult:
    """What one round did and produced."""

    ops: int
    failed: int
    digest: str
    #: Heading errors [deg] of the round's unflagged answers.
    errors: List[float] = field(default_factory=list)
    #: Workload-level counts (fleet cache, factory signatures).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Served latencies in virtual time [s] (fleet only).
    latencies_s: List[float] = field(default_factory=list)
    #: Failed correctness checks.
    problems: List[str] = field(default_factory=list)


class Ledger:
    """Attempted and failed ops plus failed checks, over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, result: RoundResult) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        self.problems.extend(result.problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def digest(values) -> str:
    """Digest of a round's outputs; ``repr`` keeps every float digit."""
    return hashlib.sha256(repr(values).encode()).hexdigest()


@dataclass
class Phase:
    """The rounds of one timed phase: ``(input index, seconds, result)``."""

    rounds: List[Tuple[int, float, RoundResult]]
    wall_s: float
    #: Peak resident set size [MB] after the first round: a fixed amount
    #: of work, because the program's footprint keeps growing round after
    #: round and a longer phase would otherwise read higher.
    peak_rss_mb: float = 0.0

    @property
    def ops(self) -> int:
        return sum(result.ops for _, _, result in self.rounds)

    @property
    def ops_per_s(self) -> float:
        """Upper quartile over rounds of the round's ops per host-second.

        On a shared host, contention from other tenants comes and goes
        within seconds and only ever slows a round, so the median swings
        with the share of disturbed rounds while the upper quartile tracks
        the undisturbed speed; it still rests on a quarter of the rounds,
        unlike the single fastest one.
        """
        rates = [result.ops / seconds for _, seconds, result in self.rounds]
        if len(rates) < 2:
            return rates[0]
        return statistics.quantiles(rates, n=4)[2]

    def counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for _, _, result in self.rounds:
            for name, value in result.counters.items():
                total[name] = total.get(name, 0.0) + value
        return total

    def latencies_s(self) -> List[float]:
        return [x for _, _, result in self.rounds for x in result.latencies_s]


def run_phase(
    workload,
    seconds: float,
    min_rounds: int,
    ledger: Ledger,
    first_seen: Dict[int, RoundResult],
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """Cycle the workload's inputs from index 0 for ``seconds`` (and at
    least ``min_rounds`` rounds), checking each repetition's digest
    against the first result of the same input in ``first_seen``."""
    n_inputs = len(workload.inputs)
    rounds: List[Tuple[int, float, RoundResult]] = []
    peak_rss_mb = 0.0
    start = clock()
    while len(rounds) < min_rounds or clock() - start < seconds:
        index = len(rounds) % n_inputs
        began = clock()
        result = workload.run_round(index)
        elapsed = clock() - began
        ledger.record(result)
        first = first_seen.setdefault(index, result)
        if first.digest != result.digest:
            ledger.problems.append(
                f"round input {index}: outputs differ from its first run"
            )
        rounds.append((index, elapsed, result))
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Phase(rounds=rounds, wall_s=clock() - start, peak_rss_mb=peak_rss_mb)
