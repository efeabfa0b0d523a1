"""Random linear network coding over GF(2^8).

This package is the coding substrate of the OMNC reproduction:

* :mod:`repro.coding.gf256` — the numpy reference field.
* :mod:`repro.coding.native` — the compiled field (C kernels, Sec. 4).
* :mod:`repro.coding.matrix` — dense GF matrix algebra (RREF, rank, solve).
* :mod:`repro.coding.generation` — generations of data blocks.
* :mod:`repro.coding.packet` — coded packet format and wire serialization.
* :mod:`repro.coding.basis` — the reduced-echelon row basis: the one
  elimination core behind the relay's innovation filter and the decoder.
* :mod:`repro.coding.encoder` — source encoder and relay re-encoder.
* :mod:`repro.coding.decoder` — progressive Gauss-Jordan decoder (paper
  Sec. 4) and the decode-at-the-end baseline.
"""

from repro.coding.decoder import BlockDecoder, ProgressiveDecoder
from repro.coding.encoder import RelayReEncoder, SourceEncoder
from repro.coding.generation import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_BLOCKS_PER_GENERATION,
    Generation,
    GenerationParams,
    random_generation,
    split_into_generations,
)
from repro.coding.gf256 import GF256
from repro.coding.packet import CodedPacket

__all__ = [
    "BlockDecoder",
    "CodedPacket",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BLOCKS_PER_GENERATION",
    "GF256",
    "Generation",
    "GenerationParams",
    "ProgressiveDecoder",
    "RelayReEncoder",
    "SourceEncoder",
    "random_generation",
    "split_into_generations",
]
