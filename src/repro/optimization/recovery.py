"""Primal recovery averaging (Sherali & Choi [20]).

The dual subgradient method solves the two subproblems with *extreme*
per-iteration solutions (one shortest path; bang-bang rates).  The primal
optimal solution is recovered by averaging the iterates:

    x_bar(t) = (1/t) * sum_k x^k                          (paper eq. 13)
    b_bar(t) = (1/t) * sum_k b^k                          (paper eq. 18)

:class:`IterateAverager` implements this with two refinements used by
practical subgradient codes:

* **tail (suffix) averaging** — average only the most recent fraction of
  iterates.  The full average provably converges but drags the poor early
  iterates along forever; suffix averages converge to the same limit and
  reach a usable allocation an order of magnitude sooner.  ``tail=1.0``
  recovers the paper-literal full average.
* **O(1) queries** via prefix sums, so per-iteration recovered snapshots
  (needed for the Fig. 1 history) stay cheap.

Averaging runs over numpy vectors; callers map their keyed dictionaries
onto a fixed index order once.
"""

from __future__ import annotations

import numpy as np


class IterateAverager:
    """Prefix-sum averaging over a fixed-length vector of iterates."""

    def __init__(self, size: int, *, tail: float = 0.5) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if not 0.0 < tail <= 1.0:
            raise ValueError(f"tail must be in (0, 1], got {tail}")
        self._size = size
        self._tail = tail
        # Row t = sum of iterates 0..t-1 for t <= count; row 0 = zeros.
        self._prefix = np.zeros((8, size))
        self._count = 0

    @property
    def count(self) -> int:
        """Number of iterates absorbed."""
        return self._count

    @property
    def tail(self) -> float:
        """Fraction of the most recent iterates that enter the average."""
        return self._tail

    def push(self, iterate: np.ndarray) -> None:
        """Absorb one iterate vector."""
        iterate = np.asarray(iterate, dtype=float)
        if iterate.shape != (self._size,):
            raise ValueError(f"iterate shape {iterate.shape} != ({self._size},)")
        t = self._count
        prefix = self.reserve(1)
        np.add(prefix[t], iterate, out=prefix[t + 1])
        self._count = t + 1

    def reserve(self, extra: int) -> np.ndarray:
        """The C-contiguous prefix-sum table, grown to hold ``extra`` more
        rows; rows past :attr:`count` are scratch until :meth:`advance`."""
        rows = len(self._prefix)
        if self._count + 1 + extra > rows:
            grown = np.zeros((max(self._count + 1 + extra, 2 * rows), self._size))
            grown[:rows] = self._prefix
            self._prefix = grown
        return self._prefix

    def advance(self, rows: int) -> None:
        """Absorb the ``rows`` iterates whose prefix sums were written past
        :attr:`count` into the :meth:`reserve` table (the compiled loop)."""
        self._count += rows

    def average(self) -> np.ndarray:
        """The current (tail-)averaged vector; zeros before any push."""
        t = self._count
        if t == 0:
            return np.zeros(self._size)
        start = int(np.floor(t * (1.0 - self._tail)))
        if start >= t:
            start = t - 1
        window = t - start
        return (self._prefix[t] - self._prefix[start]) / window
