"""Every pin of ``tests/pins.py`` at every variant, and ``record`` itself."""

import pytest

from tests import pins
from tests.pins import COMPILED, PINS, Pin, variant_id
from tests.test_active_set import line_network, line_session


def case_id(pin, variant):
    return "-".join(filter(None, (pin.name, variant_id(variant))))


@pytest.mark.parametrize(
    "pin, variant",
    [
        pytest.param(pin, variant, id=case_id(pin, variant))
        for pin in PINS
        for variant in pin.variants
    ],
)
def test_pin(pin, variant):
    produced = pin.produce(variant)
    assert produced == pin.value, (
        f"pin {case_id(pin, variant)}: committed {pin.value!r}, produced {produced!r}"
    )


def test_names_are_unique():
    assert len({pin.name for pin in PINS}) == len(PINS)


def constant():
    return ("new", {"count": 2})


def by_shards(shards):
    return "shared" if shards < 4 else "different"


def by_core_form():
    with line_session(line_network(8), 1) as session:
        session.run(20)
        return session._core._kernel is not None


TABLE = """PINS = (
    Pin("kept", "tests.test_pins:constant", "old"),
    Pin("moved", "tests.test_pins:constant", "old"),
)
"""


def test_record_rewrites_only_the_named_entries(tmp_path, capsys):
    path = tmp_path / "pins.py"
    path.write_text(TABLE)
    pins.record(["moved"], [Pin("moved", "tests.test_pins:constant", "old")], path)
    assert path.read_text() == TABLE.replace(
        ':constant", "old"),\n)', ':constant", (\n        "new",\n        {"count": 2},\n    )),\n)'
    )
    assert capsys.readouterr().out == "moved: 'old' -> ('new', {'count': 2})\n"


def test_record_refuses_when_the_variants_disagree(tmp_path):
    path = tmp_path / "pins.py"
    path.write_text(TABLE)
    cases = [
        ("by_shards", ({"shards": 1}, {"shards": 2}, {"shards": 4}), SystemExit,
         "shards=4: 'different'"),
        # No core at all: the compiled variant cannot pass vacuously.
        ("constant", ({}, {"form": "compiled"}), AssertionError,
         "core form compiled: the kernel was never called"),
    ]
    if COMPILED:
        cases.append(("by_core_form", ({"form": "scalar"}, *COMPILED), SystemExit,
                      "form=compiled: True"))
    for producer, variants, refusal, reason in cases:
        table = [Pin("moved", f"tests.test_pins:{producer}", "old", variants)]
        with pytest.raises(refusal, match="moved: the variants disagree|core form") as refused:
            pins.record(["moved"], table, path)
        assert reason in str(refused.value)
        assert path.read_text() == TABLE
