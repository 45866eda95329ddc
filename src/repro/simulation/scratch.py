"""One process-wide workspace for the stepped chain's multi-row scratch.

A chunked stepped sweep needs the same multi-megabyte temporaries —
the sensor's field and pickup matrices, the noisy amplifier's input
sum, the comparator's state-machine matrices — for every chunk of every
channel of every compass.  Many compasses are short-lived (a
Monte-Carlo trial, a scenario plant, a factory unit), so buffers they
owned would be freed and paged in afresh for the next one.
:func:`scratch` hands out one buffer per ``(role, shape, dtype)``
instead, whichever sensor, amplifier or comparator asks.

It is safe under two conditions, which every caller keeps:

* every element of a scratch buffer is written before it is read, so
  no result can see what an earlier call left there;
* one thread runs the stepped chain, like ``DEFAULT_TRACE_CACHE`` and
  the tracer: two concurrent calls would write one buffer.

A caller consumes a buffer before it asks for the same role and shape
again (the next chunk, or the other channel's sensor).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

#: Buffers held at most: eight roles (two sensor, one noisy amplifier,
#: five comparator) for both the chunk shape and the remainder shape of
#: a chunked sweep.
SCRATCH_ENTRIES = 16


@functools.lru_cache(maxsize=SCRATCH_ENTRIES)
def _held(role: str, shape: Tuple[int, ...], dtype: type) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


def scratch(role: str, shape: Tuple[int, ...], dtype: type = float) -> np.ndarray:
    """An uninitialised ``shape`` buffer for ``role``, shared process-wide.

    A multi-row shape returns the buffer the last call with the same
    arguments returned, while fewer than :data:`SCRATCH_ENTRIES` other
    keys were asked for since.  A shape of one row (a scalar
    measurement, the fast path's exact windows) or none gets a fresh
    array and keeps nothing, so small calls cannot evict a sweep's chunk
    buffers.
    """
    if shape[0] < 2:
        return np.empty(shape, dtype=dtype)
    return _held(role, shape, dtype)
