"""The ctypes structs mirror the C kernels' structs, field for field.

A kernel reads its struct by offset, so a Python field out of order, or
of another kind, hands the kernel one array where it expects another,
with nothing to say so.  Each ``typedef struct`` is parsed from its C
source (no compiler needed) and held to the ctypes ``_fields_``: the
same names, in the same order, each an int64, a double or a pointer.

Every pointer the slot kernel gets is checked as it is pointed, and the
check is an exception, so ``python -O`` keeps it.
"""

import ctypes
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.emulator import native as slots
from repro.optimization import native as table1

#: What a C declaration's type is, where the field is not a pointer.
SCALAR = {"i64": "int64", "int64_t": "int64", "double": "double"}
KIND = {ctypes.c_int64: "int64", ctypes.c_double: "double", ctypes.c_void_p: "pointer"}


def c_fields(source, name):
    """``(field, kind)`` of ``typedef struct { ... } name;`` in ``source``."""
    text = re.sub(r"/\*.*?\*/", "", source.read_text(), flags=re.DOTALL)
    body = re.search(r"typedef struct\s*\{([^{}]*)\}\s*" + name + r"\s*;", text).group(1)
    fields = []
    for declaration in filter(None, (part.strip() for part in body.split(";"))):
        kind, names = re.match(r"(?:const\s+)?(\w+)\s*(.*)", declaration, re.DOTALL).groups()
        for declarator in names.split(","):
            field = declarator.strip()
            fields.append(
                (field.lstrip("* "), "pointer" if field.startswith("*") else SCALAR[kind])
            )
    return fields


def py_fields(struct):
    return [(field, KIND[ctype]) for field, ctype in struct._fields_]


@pytest.mark.parametrize(
    "module, name",
    [(slots, "Core"), (slots, "Bank"), (table1, "Session"), (table1, "Loop")],
    ids=["slots.Core", "slots.Bank", "table1.Session", "table1.Loop"],
)
def test_ctypes_struct_mirrors_the_c_struct(module, name):
    expected = c_fields(module.SOURCE, name)
    assert len(expected) > 3  # the parse found the struct's body
    assert py_fields(getattr(module, name)) == expected


@pytest.mark.parametrize(
    "array, found",
    [
        (np.zeros(3, dtype=np.int16), "dtype int8, found int16"),
        (np.zeros(4, dtype=np.int8), "shape (3,), found (4,)"),
        (np.zeros(6, dtype=np.int8)[::2], "a C-contiguous array, found strides (2,)"),
    ],
    ids=["dtype", "shape", "strided"],
)
def test_a_mismatched_array_is_refused_by_name(array, found):
    assert slots.address(np.zeros(3, dtype=np.int8), np.int8, (3,), "role")
    with pytest.raises(ValueError, match=r"Core\.role: expected " + re.escape(found)):
        slots.address(array, np.int8, (3,), "role")


def test_declared_shapes_read_the_core():
    core = slots.Core(rows=2, positions=3, pad=4, vwidth=2, sink_capacity=5)
    declared = {field: (dtype, shape) for field, dtype, shape in slots.POINTERS}
    for field, shape in [
        ("heard_from", (2, 5)), ("basis", (2, 4)), ("fallback_vectors", (5, 4)),
        ("sink_out", (5, 5)), ("conflict_ptr", (4,)), ("pair_rows", (7, 2)),
    ]:
        dtype, bounds = declared[field]
        assert slots.address(np.zeros(shape, dtype=dtype), dtype, bounds(core), field)
        wrong = np.zeros((shape[0] + 1, shape[-1] + 1), dtype=dtype)
        with pytest.raises(ValueError, match=f"Core\\.{field}: expected shape"):
            slots.address(wrong, dtype, bounds(core), field)
    # Empty: a kind of row the core lacks, never indexed, so NULL.
    assert slots.address(np.zeros((0, 5), dtype=bool), np.bool_, (2,), "active") is None


def test_the_pointer_check_survives_python_O():
    check = (
        "import numpy as np; from repro.emulator import native\n"
        "for array in (np.zeros(2), np.zeros(3, np.int64), np.zeros(4, np.int64)[::2]):\n"
        "    try: native.address(array, np.int64, (2,), 'fired')\n"
        "    except ValueError as error: print(error)"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", check], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(slots.SOURCE.parents[2])},
    )
    assert run.stdout.splitlines() == [
        "Core.fired: expected dtype int64, found float64",
        "Core.fired: expected shape (2,), found (3,)",
        "Core.fired: expected a C-contiguous array, found strides (16,)",
    ]
