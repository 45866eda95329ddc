"""A deterministic async kernel on the injected :class:`SimulatedClock`.

The fleet is concurrent software — shard workers, an open-loop load
generator, a chaos storm and thousands of in-flight requests all
overlap in time — but a soak that is not *reproducible* is useless as a
regression gate.  Ordinary ``asyncio`` gets its timing from the host
event loop, so two runs of the same seed interleave differently and a
failing storm cannot be replayed.  This module provides the alternative:
a minimal cooperative scheduler that drives standard ``async def``
coroutines under **virtual time**.

* Tasks are stepped from a FIFO ready queue; timers live in a heap keyed
  by ``(wake_time, sequence)``.  When no task is runnable the kernel
  jumps the :class:`~repro.service.clock.SimulatedClock` straight to the
  earliest timer — a 16-second soak of thousands of requests executes in
  however long the measurements themselves take, and bit-identically
  from its seed.
* The awaitable surface is deliberately tiny — :meth:`Kernel.sleep`,
  :class:`KernelFuture` and :meth:`Kernel.spawn` — and is abstracted as
  the :class:`Scheduler` interface, so fleet code is written against
  that surface rather than against the kernel.

The kernel refuses to guess: a deadlock (no ready task, no timer, main
not finished) raises instead of hanging, and a task failure nobody
awaited is re-raised at the end of :meth:`Kernel.run` instead of being
swallowed.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Coroutine, Deque, List, Optional, Tuple

from ..errors import ConfigurationError
from ..service.clock import SimulatedClock


class Scheduler:
    """The awaitable surface fleet code is written against."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, duration_s: float):
        """Awaitable that suspends the caller for ``duration_s``."""
        raise NotImplementedError

    def create_future(self) -> "KernelFuture":
        raise NotImplementedError

    def spawn(self, coro: Coroutine, name: str = "task") -> "Task":
        raise NotImplementedError


class _Sleep:
    """Yield-to-kernel marker for a virtual-time sleep."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        self.duration = duration

    def __await__(self):
        yield self


class KernelFuture:
    """A one-shot result cell awaitable by any number of tasks."""

    __slots__ = ("_kernel", "_done", "_result", "_error", "_waiters",
                 "_retrieved")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: List["Task"] = []
        self._retrieved = False

    def done(self) -> bool:
        return self._done

    def set_result(self, value: Any) -> None:
        if self._done:
            raise RuntimeError("future already completed")
        self._done = True
        self._result = value
        self._kernel._wake(self._waiters)
        self._waiters = []

    def set_exception(self, error: BaseException) -> None:
        if self._done:
            raise RuntimeError("future already completed")
        self._done = True
        self._error = error
        # A failure someone is already waiting on is considered
        # delivered; an unawaited one is the kernel's to report.
        self._retrieved = bool(self._waiters)
        self._kernel._wake(self._waiters)
        self._waiters = []

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future not completed yet")
        self._retrieved = True
        if self._error is not None:
            raise self._error
        return self._result

    def __await__(self):
        if not self._done:
            yield self
        return self.result()


class Task:
    """One spawned coroutine; ``await task.future`` joins it."""

    __slots__ = ("coro", "name", "future")

    def __init__(self, kernel: "Kernel", coro: Coroutine, name: str):
        self.coro = coro
        self.name = name
        self.future = KernelFuture(kernel)

    @property
    def done(self) -> bool:
        return self.future.done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}, done={self.done})"


class Kernel(Scheduler):
    """Deterministic virtual-time scheduler over a simulated clock."""

    def __init__(self, clock: Optional[SimulatedClock] = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self._ready: Deque[Task] = deque()
        self._timers: List[Tuple[float, int, Task]] = []
        self._seq = itertools.count()
        self._failed: List[Task] = []

    # -- Scheduler surface -----------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    def sleep(self, duration_s: float) -> _Sleep:
        if duration_s < 0.0:
            raise ConfigurationError("cannot sleep a negative duration")
        return _Sleep(duration_s)

    def create_future(self) -> KernelFuture:
        return KernelFuture(self)

    def spawn(self, coro: Coroutine, name: str = "task") -> Task:
        task = Task(self, coro, name)
        self._ready.append(task)
        return task

    # -- the loop --------------------------------------------------------------

    def _wake(self, waiters: List[Task]) -> None:
        self._ready.extend(waiters)

    def _step(self, task: Task) -> None:
        try:
            command = task.coro.send(None)
        except StopIteration as stop:
            task.future.set_result(stop.value)
            return
        except BaseException as error:  # noqa: B036 - task isolation boundary
            task.future.set_exception(error)
            self._failed.append(task)
            return
        if isinstance(command, _Sleep):
            if command.duration <= 0.0:
                self._ready.append(task)
            else:
                heapq.heappush(
                    self._timers,
                    (self.clock.now() + command.duration,
                     next(self._seq), task),
                )
        elif isinstance(command, KernelFuture):
            if command.done():
                self._ready.append(task)
            else:
                command._waiters.append(task)
        else:
            raise ConfigurationError(
                f"task {task.name!r} awaited a foreign awaitable "
                f"{command!r}; under the kernel only Kernel.sleep, "
                f"KernelFuture and Task.future are awaitable"
            )

    def run(self, coro: Coroutine, name: str = "main") -> Any:
        """Drive ``coro`` (and everything it spawns) to completion.

        Returns the coroutine's result; raises its exception.  After the
        main coroutine finishes, tasks still blocked on futures are
        abandoned (the fleet stops its workers explicitly); the first
        failure of a task whose exception nobody retrieved is re-raised
        so background crashes cannot pass silently.
        """
        main = self.spawn(coro, name)
        while not main.done:
            if self._ready:
                self._step(self._ready.popleft())
            elif self._timers:
                when, _, task = heapq.heappop(self._timers)
                gap = when - self.clock.now()
                if gap > 0.0:
                    self.clock.advance(gap)
                self._step(task)
            else:
                raise RuntimeError(
                    "kernel deadlock: main task is blocked with no "
                    "runnable task and no pending timer"
                )
        for task in self._failed:
            if not task.future._retrieved:
                task.future.result()  # re-raises
        return main.future.result()


class AsyncQueue:
    """FIFO queue for kernel coroutines.

    ``put_nowait`` hands the item straight to a waiting getter when one
    exists, otherwise appends to the backlog; :meth:`get` suspends until
    an item arrives.  The backlog is exposed read-only as
    :attr:`items` so admission control can inspect (and evict from) the
    queue it bounds.
    """

    def __init__(self, scheduler: Scheduler):
        self._scheduler = scheduler
        self.items: Deque[Any] = deque()
        self._getters: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put_nowait(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(item)
                return
        self.items.append(item)

    async def get(self) -> Any:
        if self.items:
            return self.items.popleft()
        getter = self._scheduler.create_future()
        self._getters.append(getter)
        return await getter


def run(coro: Coroutine, clock: Optional[SimulatedClock] = None) -> Any:
    """One-shot convenience: build a kernel and drive ``coro`` on it."""
    return Kernel(clock).run(coro)


SchedulerFactory = Callable[[], Scheduler]

__all__ = [
    "AsyncQueue",
    "Kernel",
    "KernelFuture",
    "Scheduler",
    "Task",
    "run",
]
