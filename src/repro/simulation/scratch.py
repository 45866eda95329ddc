"""Scratch buffers handed from a freed owner to the next one.

Sensors and comparators keep per-shape scratch matrices so a chunked
sweep never reallocates them.  Many compasses are short-lived — a
Monte-Carlo trial, a scenario plant, a factory unit — and when one is
freed the allocator returns its multi-megabyte buffers to the operating
system, so the next compass pays a page fault per 4 KB page for fresh
ones.  A :class:`ScratchPool` adopts a freed owner's buffers instead and
hands them to the next owner that asks for the same shape.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Hashable, List, Optional, Tuple


class ScratchPool:
    """Bounded store of scratch buffers whose owner has been freed.

    An owner registers its ``{shape: buffers}`` scratch dict with
    :meth:`track`; when the owner is garbage collected the buffers move
    here, and :meth:`take` gives each one to exactly one new owner, so
    no two live owners ever share a buffer.  Only the ``capacity`` most
    recently adopted entries are kept, and only until a request misses.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._spare: List[Tuple[Hashable, Any]] = []

    def track(self, owner: object, scratch: Dict[Hashable, Any]) -> None:
        """Adopt the entries of ``scratch`` once ``owner`` is freed."""
        weakref.finalize(owner, self._adopt, scratch).atexit = False

    def _adopt(self, scratch: Dict[Hashable, Any]) -> None:
        self._spare.extend(scratch.items())
        del self._spare[: -self.capacity]

    def take(self, shape: Hashable) -> Optional[Any]:
        """Remove and return a spare entry for ``shape`` (or ``None``).

        A miss drops every spare entry: the caller is about to allocate
        fresh buffers, and freeing stale shapes first lets the allocator
        reuse their memory instead of adding to the peak.
        """
        for index in range(len(self._spare) - 1, -1, -1):
            if self._spare[index][0] == shape:
                return self._spare.pop(index)[1]
        self._spare.clear()
        return None

    def __len__(self) -> int:
        return len(self._spare)
