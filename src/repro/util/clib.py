"""Embedded C kernels: compile once into a content-addressed cache, dlopen.

Every compiled kernel of the package — the GF(2^8) codec
(:mod:`repro.coding.native`), the Table 1 loop
(:mod:`repro.optimization.native`) and the emulator's slot loop
(:mod:`repro.emulator.native`) — embeds its C source and comes
through here.  :func:`build` compiles a source with ``$CC`` (default
``cc``; a command with arguments, ``cc -std=gnu11``, is split as a
shell would) into ``$XDG_CACHE_HOME/repro-omnc/<stem>_<digest>.so``, where the
digest hashes source, compiler and flags, so an edit or another compiler
rebuilds instead of loading a stale object.  :func:`load` opens it and
declares every signature before any call (ctypes otherwise truncates
64-bit pointers to ``int``).  Neither raises: no compiler, a failed
compile or a failed dlopen is ``None``, and the caller keeps its
pure-Python path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple

#: ``name -> (argtypes, restype)`` of the functions a caller will use.
Signatures = Mapping[str, Tuple[Sequence[Any], Any]]


def cache_dir() -> Path:
    """Where compiled kernels are cached: ``$XDG_CACHE_HOME/repro-omnc``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-omnc"


def build(stem: str, source: str, flags: Sequence[str]) -> Optional[Path]:
    """Compile ``source`` with ``flags`` into a cached shared object.

    Returns its path (a cache hit compiles nothing), or ``None`` when no
    working C compiler is available.
    """
    cc = os.environ.get("CC") or "cc"
    digest = hashlib.sha256(("\x00".join([source, cc, *flags])).encode()).hexdigest()[:16]
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
            c_path = Path(workdir) / f"{stem}.c"
            c_path.write_text(source)
            tmp_so = Path(workdir) / f"{stem}.so"
            command = [*shlex.split(cc), *flags, "-shared", "-fPIC", str(c_path), "-o", str(tmp_so)]
            result = subprocess.run(command, capture_output=True, timeout=120)
            if result.returncode != 0:
                return None
            # Atomic publish: concurrent builders race benignly to the
            # same content-addressed name.
            os.replace(tmp_so, so_path)
        return so_path
    except (OSError, ValueError, subprocess.SubprocessError):  # ValueError: unbalanced $CC quotes
        return None


def load(so_path: Path, signatures: Signatures) -> Optional[ctypes.CDLL]:
    """dlopen ``so_path`` and declare ``signatures``; ``None`` if it fails."""
    try:
        lib = ctypes.CDLL(str(so_path))
        for name, (argtypes, restype) in signatures.items():
            function = getattr(lib, name)
            function.argtypes = list(argtypes)
            function.restype = restype
    except (OSError, AttributeError):
        return None
    return lib
