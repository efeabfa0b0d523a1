"""Deterministic random-number management.

Emulation experiments must be reproducible run-to-run, yet the different
random consumers (topology placement, channel loss draws, coding
coefficients, session endpoint choice) must not share one stream — a change
in how one consumer draws would silently shift every other consumer.

:class:`RngFactory` derives an independent ``numpy.random.Generator`` per
named purpose from a single experiment seed, using ``SeedSequence.spawn``
semantics keyed by the purpose string.

The emulator's own draws come from :class:`NodeStreams`, one generator
per ``(kind, node)``, through pre-drawn blocks of 64 values that hand
every node exactly the sequence its one-call-at-a-time draws would give:
:class:`DrawBuffers` (Python lists, one ``list.pop()`` per value) for a
core that draws node by node.  The compiled slot loop draws the same
streams in C (:class:`repro.emulator.native.StreamBank`), and these
generators are the reference its load-time self-test checks it against.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

import numpy as np

RngLike = int | np.random.Generator | None

#: Frozen seeds of the named fallback streams (see :func:`fallback_rng`).
#: The value is bit-compatible with the historical ``default_rng(0)``
#: fallback it replaced; changing it changes every grant sequence of a
#: scheduler built without an explicit generator.
_FALLBACK_SEEDS: dict[str, int] = {
    "mac-scheduler": 0,
}


def fallback_rng(stream: str) -> np.random.Generator:
    """The named deterministic fallback stream ``stream``.

    Components that accept an optional generator (the MAC scheduler)
    fall back to these fixed streams when constructed without one —
    tests and ad-hoc scripts stay reproducible without plumbing a
    factory.  Production paths always pass explicit streams derived from
    :class:`RngFactory`.
    """
    try:
        seed = _FALLBACK_SEEDS[stream]
    except KeyError:
        known = ", ".join(sorted(_FALLBACK_SEEDS))
        raise ValueError(
            f"unknown fallback stream {stream!r} (known: {known})"
        ) from None
    return np.random.default_rng(seed)


def as_rng(seed: RngLike) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    ``None`` yields an unseeded generator; an ``int`` seeds a fresh
    generator; an existing generator is passed through untouched.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Derive named, independent random generators from one master seed.

    >>> factory = RngFactory(42)
    >>> channel_rng = factory.derive("channel")
    >>> coding_rng = factory.derive("coding")

    The same ``(seed, name)`` pair always yields an identically-seeded
    generator; different names yield decorrelated streams.  An optional
    integer ``index`` supports per-entity streams (e.g. one per link).
    """

    def __init__(self, seed: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"seed must be int, got {type(seed).__name__}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The master experiment seed."""
        return self._seed

    def derive(self, name: str, index: int | None = None) -> np.random.Generator:
        """Return a generator for the stream ``name`` (and optional ``index``)."""
        if not isinstance(name, str) or not name:
            raise ValueError("name must be a non-empty string")
        key = name if index is None else f"{name}#{index}"
        # crc32 gives a stable 32-bit digest of the purpose key; combined
        # with the master seed in a SeedSequence it yields decorrelated
        # child streams that are stable across interpreter runs.
        digest = zlib.crc32(key.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(digest,))
        return np.random.default_rng(seq)

    def spawn(self, name: str) -> "RngFactory":
        """Return a child factory whose streams are independent of this one."""
        digest = zlib.crc32(name.encode("utf-8"))
        # Mix the child name into the master seed; modulo keeps it in the
        # non-negative 63-bit range accepted by the constructor.
        child_seed = (self._seed * 2654435761 + digest) % (2**63)
        return RngFactory(child_seed)

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"


class NodeStreams(Dict[int, np.random.Generator]):
    """``node -> generator`` of one kind, derived on first use.

    The emulator's one random universe: every MAC lottery key ("mac"),
    channel loss vector ("channel") and capture tie-break ("capture")
    comes from a stream owned by the node it concerns, so RNG
    consumption is *partition-independent* — a node draws the same
    values no matter which process hosts it, which other nodes share
    its shard, or who else is active.  Global streams cannot provide
    that: their draw order depends on who else transmits.

    A missing node's stream is ``factory.derive(f"node-{kind}", node)``,
    so any process holding the same :class:`RngFactory` seed
    reconstructs identical streams with no state exchange, and only for
    the nodes it actually draws for.
    """

    #: Stream kinds the emulator consumes.
    KINDS = ("mac", "channel", "capture")

    def __init__(self, factory: RngFactory, kind: str) -> None:
        if kind not in self.KINDS:
            known = ", ".join(self.KINDS)
            raise ValueError(f"unknown stream kind {kind!r} (known: {known})")
        super().__init__()
        self.kind = kind
        self._factory = factory
        self._name = f"node-{kind}"

    def __missing__(self, node: int) -> np.random.Generator:
        stream = self[node] = self._factory.derive(self._name, node)
        return stream


class DrawBuffers(Dict[int, List[float]]):
    """Pre-drawn blocks of per-node streams, for draws one node at a time.

    The scalar twin of the compiled loop's bank
    (:class:`repro.emulator.native.StreamBank`): ``node -> list`` of the next
    values of that node's own :class:`NodeStreams` generator, *next value
    last*, so a single draw is ``list.pop()`` (the slot loop's lottery
    key, a unicast attempt's uniform) and a run of ``k`` is one slice
    (:meth:`take`, a broadcast's loss vector).  An empty or short list is
    topped up by :meth:`refill` in whole blocks of :attr:`BLOCK`, drawn by
    the call the scalar consumer makes — ``standard_exponential`` for
    "mac", ``random`` for "channel" — and put *behind* the values the
    list still holds, so a node consumes exactly the sequence it would
    have drawn one call at a time, however single draws and runs
    interleave.

    ``buffers[node] or buffers.refill(node)`` is the node's list with at
    least one value in it.  Lists are made, and generators derived, on a
    node's first draw.  As with a bank, a buffered stream has handed out
    values nobody has consumed yet: every later draw of that node must
    come through the buffers.
    """

    #: Values drawn per refill, here and in the compiled loop's bank.
    #: Large enough that a refill is a small share of the draws, small
    #: enough that a row a node barely uses costs half a kilobyte.
    BLOCK = 64

    _FILLS = {
        "mac": lambda generator, size: generator.standard_exponential(size=size),
        "channel": lambda generator, size: generator.random(size=size),
    }

    def __init__(self, streams: NodeStreams) -> None:
        try:
            self._fill = self._FILLS[streams.kind]
        except KeyError:
            known = ", ".join(self._FILLS)
            raise ValueError(
                f"stream kind {streams.kind!r} cannot be buffered (known: {known})"
            ) from None
        super().__init__()
        self._streams = streams
        self._block = self.BLOCK

    def __missing__(self, node: int) -> List[float]:
        values: List[float] = []
        self[node] = values
        return values

    def refill(self, node: int, need: int = 1) -> List[float]:
        """``node``'s list, topped up to at least ``need`` values by one
        generator call of the fewest whole blocks that suffice."""
        values = self[node]
        short = need - len(values)
        if short > 0:
            size = -(-short // self._block) * self._block
            fresh = self._fill(self._streams[node], size).tolist()
            fresh.reverse()
            values[:0] = fresh
        return values

    def take(self, node: int, count: int) -> List[float]:
        """The next ``count`` values of ``node``, in draw order."""
        values = self[node]
        if len(values) < count:
            self.refill(node, count)
        run = values[: -count - 1 : -1]
        del values[len(values) - count :]
        return run
