"""A pytest plugin that builds every C kernel sanitized and strict.

Loaded with ``-p tests.sanitized``, it adds AddressSanitizer and
UndefinedBehaviorSanitizer to the flags of each :func:`repro.util.clib.build`
(the codec, Table 1 and the slot loop), with ``-fno-sanitize-recover=all``
so that the first finding aborts the run, ``-g`` so that it cites
``src/repro/kernels/<kernel>.c:<line>``, and ``-Wall -Wextra -Werror`` so
that a warning fails the build (the kernel then falls back, and the tests
that need it fail).  Link inputs are passed through.  The flags enter the
cache digest, so a sanitized object never stands in for a plain one.  The
interpreter is not instrumented, so the runtimes must be preloaded, and
Python's own allocations are not leaks worth reporting::

    LD_PRELOAD="$(cc -print-file-name=libasan.so) $(cc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 python -m pytest -p tests.sanitized tests/test_compiled_slots.py
"""

from repro.util import clib

SANITIZERS = (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-fno-omit-frame-pointer", "-g"
)
WARNINGS = ("-Wall", "-Wextra", "-Werror")

_build = clib.build


def _sanitized(stem, source, flags, link=()):
    return _build(stem, source, [*flags, *SANITIZERS, *WARNINGS], link)


# At import, not in a hook: test modules resolve kernels as they are collected.
clib.build = _sanitized
