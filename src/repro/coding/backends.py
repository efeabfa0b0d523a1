"""Which GF(2^8) field the codec runs on when no ``field=`` is given.

The paper accelerates its coding loop with SSE2 because coding
throughput bounds everything downstream; this module picks that loop's
descendant the way the Table 1 and slot-loop kernels are picked
(:func:`repro.optimization.rate_control.compiled_kernel`,
:func:`repro.emulator.engine.compiled_kernel`): :func:`default_field`
builds, loads and self-tests the compiled field once per process
(:class:`repro.coding.native.GF256Native`, ``pshufb`` nibble multiply)
and falls back to the numpy reference (:class:`repro.coding.gf256.GF256`,
the oracle every field must equal bit for bit) with one logged warning.

An explicit ``field=`` always wins (:func:`resolve_field`): that is how
the equivalence suites run the reference beside the compiled field, and
how Sec. 4's timing runs the same kernels built without SIMD flags
(:class:`repro.coding.native.GF256TableWalk`).
"""

from __future__ import annotations

import functools
import logging
from typing import Optional, Tuple

from repro.coding.gf256 import GF256

#: Any GF(2^8) arithmetic engine: the numpy reference or a compiled
#: subclass, all with the same classmethod surface.
FieldType = type[GF256]

#: Name of the always-available numpy reference; the compiled field is
#: ``"native"``.
REFERENCE_BACKEND = "numpy"


@functools.cache
def default_field() -> FieldType:
    """The compiled field, or the numpy reference where it cannot build,
    load or pass its self-test (one logged warning; the verdict holds
    for the process)."""
    from repro.coding.native import load_native_backend

    field = load_native_backend()
    if field is None:
        logging.getLogger(__name__).warning(
            "the compiled GF(2^8) codec is unavailable here; the codec runs on numpy"
        )
        return GF256
    return field


def available_backends() -> Tuple[str, ...]:
    """Names of the fields this machine runs: the reference ``"numpy"``,
    then ``"native"`` where the compiled field loads (what the
    equivalence suites and the pin table iterate)."""
    return (REFERENCE_BACKEND,) if default_field() is GF256 else (REFERENCE_BACKEND, "native")


def get_backend(name: str) -> FieldType:
    """The field :func:`available_backends` calls ``name``; ``KeyError``
    for a name that does not run here.  ``"best"`` is
    :func:`default_field` (an alias kept for ``bench/``)."""
    if name in ("best", best_backend_name()):
        return default_field()
    if name == REFERENCE_BACKEND:
        return GF256
    raise KeyError(
        f"unknown or unavailable GF(2^8) backend {name!r}; "
        f"available here: {', '.join(available_backends())}"
    )


def resolve_field(field: Optional[FieldType]) -> FieldType:
    """The field an encoder/decoder uses: explicit wins, else
    :func:`default_field`."""
    return field if field is not None else default_field()


def best_backend_name() -> str:
    """Name of :func:`default_field` (what ``obs`` tags a run with and
    ``bench/`` records)."""
    return available_backends()[-1]


def select_backend(name: str, *, export: bool = False) -> FieldType:
    """Check that ``name`` is the field this process runs and return it
    (kept for ``bench/``); ``KeyError`` for any other name.

    ``export`` is accepted and ignored: every process resolves the same
    field from the same cached kernel, so there is nothing to export.
    """
    if name != best_backend_name():
        raise KeyError(f"GF(2^8) backend {name!r} is not the one this process runs")
    return default_field()


__all__ = [
    "FieldType",
    "REFERENCE_BACKEND",
    "available_backends",
    "best_backend_name",
    "default_field",
    "get_backend",
    "resolve_field",
    "select_backend",
]
