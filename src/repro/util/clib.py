"""C kernels: compile a source file once into a content-addressed cache, dlopen.

Every compiled kernel of the package — the GF(2^8) codec
(:mod:`repro.coding.native`), the Table 1 loop with the re-plan flood's
pseudo-broadcast greedy (:mod:`repro.optimization.native`) and the
emulator's slot loop (:mod:`repro.emulator.native`) — is a C file in
``repro/kernels/`` (package data) and comes through here.  :func:`build`
compiles it in place, so a diagnostic cites ``slots.c:NNN``, with ``$CC``
(default ``cc``; a command with arguments, ``cc -std=gnu11``, is split as
a shell would), linked against what follows it on the command line (the
slot loop links numpy's ``libnpyrandom.a``), into
``$XDG_CACHE_HOME/repro-omnc/<stem>_<digest>.so``, where the digest hashes
the file's bytes, those of every local header it includes (``#include
"…"``, recursively), compiler, flags, link inputs and the bytes of every
link input that is a file, so an edit (to a shared header too), another
compiler or another numpy rebuilds instead of loading a stale object.  :func:`load` builds, opens
the object and declares every signature before any call (ctypes
otherwise truncates 64-bit pointers to ``int``).  Neither raises: no
compiler, a missing file, a failed compile or a failed dlopen is
``None``, and the caller keeps its pure-Python path; a failed compile
logs the tail of the compiler's diagnostics first.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import re
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple

#: ``name -> (argtypes, restype)`` of the functions a caller will use.
Signatures = Mapping[str, Tuple[Sequence[Any], Any]]

_LOCAL_INCLUDE = re.compile(rb'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)


def _sources(source: Path) -> list:
    """The bytes of ``source`` and of every local header it includes,
    recursively, each once, in first-include order (``OSError`` if one is
    missing)."""
    seen, pending, contents = set(), [source], []
    while pending:
        path = pending.pop(0)
        if path in seen:
            continue
        seen.add(path)
        text = path.read_bytes()
        contents.append(text)
        pending += [path.parent / name.decode() for name in _LOCAL_INCLUDE.findall(text)]
    return contents


def cache_dir() -> Path:
    """Where compiled kernels are cached: ``$XDG_CACHE_HOME/repro-omnc``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-omnc"


def compiler() -> str:
    """The C compiler command: ``$CC``, default ``cc``."""
    return os.environ.get("CC") or "cc"


def build(
    stem: str, source: Path, flags: Sequence[str], link: Sequence[str] = ()
) -> Optional[Path]:
    """Compile the C file ``source`` with ``flags`` into a cached shared
    object, linking ``link`` (archives, ``-l`` options) after the source.

    Returns its path (a cache hit compiles nothing), or ``None`` when no
    working C compiler is available or the source or a link input is
    missing.  A compile that fails logs the last 20 lines the compiler
    wrote to stderr, if it wrote any.
    """
    cc = compiler()
    try:
        hasher = hashlib.sha256()
        for text in _sources(source):
            hasher.update(text)
        hasher.update("\x00".join(["", cc, *flags, *link]).encode())
        for item in link:
            if not item.startswith("-"):
                hasher.update(Path(item).read_bytes())
    except OSError:
        return None
    digest = hasher.hexdigest()[:16]
    cache = cache_dir()
    so_path = cache / f"{stem}_{digest}.so"
    if so_path.exists():
        return so_path
    import shlex  # only a process that compiles pays for these imports
    import subprocess
    import tempfile

    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as workdir:
            tmp_so = Path(workdir) / f"{stem}.so"
            command = [
                *shlex.split(cc), *flags, "-shared", "-fPIC", str(source), *link, "-o", str(tmp_so)
            ]
            result = subprocess.run(command, capture_output=True, timeout=120)
            if result.returncode != 0:
                diagnostics = result.stderr.decode(errors="replace").splitlines()
                if diagnostics:
                    logging.getLogger(__name__).warning(
                        "%s could not compile %s:\n%s",
                        cc, source, "\n".join(diagnostics[-20:]),
                    )
                return None
            # Atomic publish: concurrent builders race benignly to the
            # same content-addressed name.
            os.replace(tmp_so, so_path)
        return so_path
    except (OSError, ValueError, subprocess.SubprocessError):  # ValueError: unbalanced $CC quotes
        return None


def load(
    stem: str, source: Path, flags: Sequence[str], signatures: Signatures, link: Sequence[str] = ()
) -> Optional[ctypes.CDLL]:
    """:func:`build` ``source`` and open it with ``signatures`` declared;
    ``None`` if either fails, after one rebuild of an object that does
    not open (a cache entry rotten on disk would otherwise fail forever)."""
    for _attempt in range(2):
        so_path = build(stem, source, flags, link)
        if so_path is None:
            return None
        try:
            lib = ctypes.CDLL(str(so_path))
            for name, (argtypes, restype) in signatures.items():
                function = getattr(lib, name)
                function.argtypes = list(argtypes)
                function.restype = restype
            return lib
        except (OSError, AttributeError):
            so_path.unlink(missing_ok=True)
    return None


def fields(ints: str, doubles: str, pointers: str) -> list:
    """ctypes ``_fields_`` of a kernel struct: the int64s, then the
    doubles, then the pointers (every field 8 bytes, so no padding)."""
    return [
        *((name, ctypes.c_int64) for name in ints.split()),
        *((name, ctypes.c_double) for name in doubles.split()),
        *((name, ctypes.c_void_p) for name in pointers.split()),
    ]
