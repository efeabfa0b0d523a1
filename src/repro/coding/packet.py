"""Coded packet format and wire serialization.

A coded packet carries one coded block together with the coding vector
that produced it (a row of the coefficient matrix R), plus the session and
generation identity needed by relays to manage queues and expire stale
generations (paper Sec. 4).

Wire layout (big-endian):

    magic      2 bytes   0x4F4D ("OM")
    version    1 byte
    session    4 bytes   session identifier
    generation 4 bytes   generation identifier
    blocks     2 bytes   n  (coding-vector length)
    block_size 2 bytes   m  (payload length)
    vector     n bytes   coding coefficients
    payload    m bytes   coded block
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

_MAGIC = 0x4F4D
_VERSION = 1
_HEADER = struct.Struct(">HBIIHH")
HEADER_BYTES = _HEADER.size


@dataclass(frozen=True)
class CodedPacket:
    """An immutable coded packet.

    Attributes:
        session_id: unicast session the packet belongs to.
        generation_id: generation within the session.
        coefficients: length-n coding vector over GF(2^8).
        payload: length-m coded block (optional in coefficient-only
            emulation mode, where only the coding vectors are simulated —
            see ``repro.emulator``).
    """

    session_id: int
    generation_id: int
    coefficients: np.ndarray
    payload: np.ndarray | None = None
    origin: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.session_id < 0 or self.session_id > 0xFFFFFFFF:
            raise ValueError(f"session_id out of range: {self.session_id}")
        if self.generation_id < 0 or self.generation_id > 0xFFFFFFFF:
            raise ValueError(f"generation_id out of range: {self.generation_id}")
        coeffs = np.asarray(self.coefficients, dtype=np.uint8)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D vector")
        if coeffs.size > 0xFFFF:
            raise ValueError(f"coding vector too long: {coeffs.size}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if self.payload is not None:
            payload = np.asarray(self.payload, dtype=np.uint8)
            if payload.ndim != 1 or payload.size == 0:
                raise ValueError("payload must be a non-empty 1-D vector")
            if payload.size > 0xFFFF:
                raise ValueError(f"payload too long: {payload.size}")
            payload = payload.copy()
            payload.setflags(write=False)
            object.__setattr__(self, "payload", payload)

    @classmethod
    def batch_from_rows(
        cls,
        session_id: int,
        generation_id: int,
        coefficients: np.ndarray,
        payloads: np.ndarray | None = None,
        origin: int | None = None,
    ) -> "List[CodedPacket]":
        """Build one packet per row of ``coefficients`` without copying.

        The batch encoders produce whole (k, n) coefficient and (k, m)
        payload matrices in contiguous memory; this constructor wraps
        each row as a read-only view so packet construction stays O(k)
        in Python objects with zero byte copies.  The input matrices are
        marked read-only in place — callers hand over ownership.
        """
        coefficients = np.ascontiguousarray(coefficients, dtype=np.uint8)
        if coefficients.ndim != 2 or coefficients.shape[1] == 0:
            raise ValueError("coefficients must be a non-empty (k, n) matrix")
        if session_id < 0 or session_id > 0xFFFFFFFF:
            raise ValueError(f"session_id out of range: {session_id}")
        if generation_id < 0 or generation_id > 0xFFFFFFFF:
            raise ValueError(f"generation_id out of range: {generation_id}")
        if coefficients.shape[1] > 0xFFFF:
            raise ValueError(f"coding vector too long: {coefficients.shape[1]}")
        coefficients.setflags(write=False)
        payload_rows: List[np.ndarray | None]
        if payloads is None:
            payload_rows = [None] * coefficients.shape[0]
        else:
            payloads = np.ascontiguousarray(payloads, dtype=np.uint8)
            if payloads.ndim != 2 or payloads.shape[1] == 0:
                raise ValueError("payloads must be a non-empty (k, m) matrix")
            if payloads.shape[0] != coefficients.shape[0]:
                raise ValueError(
                    f"payload rows {payloads.shape[0]} != "
                    f"coefficient rows {coefficients.shape[0]}"
                )
            if payloads.shape[1] > 0xFFFF:
                raise ValueError(f"payload too long: {payloads.shape[1]}")
            payloads.setflags(write=False)
            payload_rows = list(payloads)
        packets = []
        for vector, payload in zip(coefficients, payload_rows):
            packet = object.__new__(cls)
            # one write for all five fields: the instance is frozen
            object.__setattr__(packet, "__dict__", {
                "session_id": session_id,
                "generation_id": generation_id,
                "coefficients": vector,
                "payload": payload,
                "origin": origin,
            })
            packets.append(packet)
        return packets

    @property
    def blocks(self) -> int:
        """Generation size n implied by the coding-vector length."""
        return int(self.coefficients.size)

    @property
    def block_size(self) -> int:
        """Payload length m (0 in coefficient-only mode)."""
        return 0 if self.payload is None else int(self.payload.size)

    @property
    def wire_size(self) -> int:
        """Total bytes this packet occupies on the air.

        In coefficient-only emulation the payload is not materialized, but
        it still occupies airtime; callers must account for the block size
        separately in that mode.
        """
        return HEADER_BYTES + self.blocks + self.block_size

    def is_zero(self) -> bool:
        """True if the coding vector is all-zero (carries no information)."""
        return not np.any(self.coefficients)

    def to_bytes(self) -> bytes:
        """Serialize to the wire format.  Requires a payload."""
        if self.payload is None:
            raise ValueError("cannot serialize a coefficient-only packet")
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self.session_id,
            self.generation_id,
            self.blocks,
            self.block_size,
        )
        return header + self.coefficients.tobytes() + self.payload.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CodedPacket":
        """Parse a packet from the wire format; raises ``ValueError`` on
        malformed input."""
        if len(data) < HEADER_BYTES:
            raise ValueError(f"truncated packet: {len(data)} bytes")
        magic, version, session_id, generation_id, blocks, block_size = _HEADER.unpack(
            data[:HEADER_BYTES]
        )
        if magic != _MAGIC:
            raise ValueError(f"bad magic: 0x{magic:04X}")
        if version != _VERSION:
            raise ValueError(f"unsupported version: {version}")
        expected = HEADER_BYTES + blocks + block_size
        if len(data) != expected:
            raise ValueError(f"length mismatch: expected {expected}, got {len(data)}")
        vector = np.frombuffer(data, dtype=np.uint8, count=blocks, offset=HEADER_BYTES)
        payload = np.frombuffer(
            data, dtype=np.uint8, count=block_size, offset=HEADER_BYTES + blocks
        )
        return cls(
            session_id=session_id,
            generation_id=generation_id,
            coefficients=vector,
            payload=payload,
        )

    def __repr__(self) -> str:
        mode = "payload" if self.payload is not None else "coeff-only"
        return (
            f"CodedPacket(session={self.session_id}, gen={self.generation_id}, "
            f"n={self.blocks}, m={self.block_size}, {mode})"
        )
