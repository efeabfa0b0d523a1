"""Tests for ``repro check`` — the whole-program rule family and the CLI.

Each RPR1xx rule gets seeded-regression fixtures: a tiny synthetic
project is written to ``tmp_path`` with its own ``[tool.repro.check]``
contract, and the rule must fire on the planted violation (and stay
silent on the clean variant).  The CLI and output formats are driven
end to end through ``repro.cli.main``, once per rule of either family
(the per-file family's own fixtures live in ``test_repro_lint.py``);
the final class asserts the shipped tree itself sweeps clean — the hard
CI gate.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_CODES,
    Finding,
    build_project,
    load_check_config,
    run_rules,
)
from repro.analysis.checker import CheckConfigError
from repro.analysis.modgraph import module_name_for
from repro.cli import main as cli_main

PYPROJECT = """\
[tool.repro.check]
package = "pkg"
layers = [
    ["util"],
    ["low", "peer"],
    ["mid"],
    ["high"],
]
layer-waivers = [{waivers}]
payload-types = [{payloads}]
worker-roots = [{workers}]
rng-modules = ["pkg.util.rng"]
"""


def make_project(
    tmp_path: Path,
    files: dict[str, str],
    *,
    waivers: str = "",
    payloads: str = '"pkg.low.payload.Box"',
    workers: str = '"pkg.low.worker"',
) -> Path:
    """Write a synthetic project; returns its root directory."""
    (tmp_path / "pyproject.toml").write_text(
        PYPROJECT.format(waivers=waivers, payloads=payloads, workers=workers)
    )
    defaults = {
        "pkg/__init__.py": "",
        "pkg/util/__init__.py": "",
        "pkg/util/rng.py": (
            "def as_rng(seed: int) -> int:\n    return seed\n"
            "def fallback_rng() -> int:\n    return 0\n"
        ),
        "pkg/low/__init__.py": "",
        "pkg/low/payload.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Box:\n"
            "    seed: int\n"
        ),
        "pkg/low/worker.py": "",
        "pkg/peer/__init__.py": "",
        "pkg/mid/__init__.py": "",
        "pkg/high/__init__.py": "",
    }
    for rel, content in {**defaults, **files}.items():
        target = tmp_path / "src" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    return tmp_path


def check(root: Path, select: tuple[str, ...]) -> list[Finding]:
    config = load_check_config(root / "pyproject.toml")
    project = build_project(root / "src", config.package)
    return run_rules(project, config, select)


def rules_of(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


class TestModuleGraph:
    def test_module_name_for(self, tmp_path: Path):
        root = tmp_path / "src"
        assert (
            module_name_for(root / "pkg" / "low" / "worker.py", root)
            == "pkg.low.worker"
        )
        assert module_name_for(root / "pkg" / "__init__.py", root) == "pkg"

    def test_edge_kinds(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/uses.py": (
                    "from typing import TYPE_CHECKING\n"
                    "import pkg.low.payload\n"
                    "if TYPE_CHECKING:\n"
                    "    import pkg.high\n"
                    "def f():\n"
                    "    import pkg.util.rng\n"
                ),
            },
        )
        project = build_project(root / "src", "pkg")
        kinds = {
            edge.target: edge.kind
            for edge in project.edges
            if edge.importer == "pkg.mid.uses"
        }
        assert kinds == {
            "pkg.low.payload": "toplevel",
            "pkg.high": "typing",
            "pkg.util.rng": "lazy",
        }

    def test_relative_imports_resolve(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/sibling.py": "X = 1\n",
                "pkg/low/uses.py": "from .sibling import X\n",
            },
        )
        project = build_project(root / "src", "pkg")
        assert any(
            e.importer == "pkg.low.uses" and e.target == "pkg.low.sibling"
            for e in project.edges
        )


class TestRPR101Layering:
    def test_upward_import_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path, {"pkg/low/bad.py": "import pkg.high\n"}
        )
        findings = check(root, ("RPR101",))
        assert rules_of(findings) == ["RPR101"]
        assert "layering violation" in findings[0].message
        assert findings[0].path == "src/pkg/low/bad.py"

    def test_downward_and_same_band_allowed(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/high/fine.py": "import pkg.low.payload\n",
                "pkg/low/fine.py": "import pkg.peer\n",
            },
        )
        assert check(root, ("RPR101",)) == []

    def test_type_checking_import_exempt(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/typed.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    import pkg.high\n"
                ),
            },
        )
        assert check(root, ("RPR101",)) == []

    def test_lazy_upward_import_still_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/lazy.py": (
                    "def f():\n    import pkg.high\n    return pkg.high\n"
                ),
            },
        )
        assert rules_of(check(root, ("RPR101",))) == ["RPR101"]

    def test_waiver_suppresses(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {"pkg/low/bad.py": "import pkg.high\n"},
            waivers='"low -> high"',
        )
        assert check(root, ("RPR101",)) == []

    def test_unknown_unit_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/rogue/__init__.py": "",
                "pkg/rogue/mod.py": "import pkg.low.payload\n",
            },
        )
        findings = check(root, ("RPR101",))
        assert any("not covered by the layering contract" in f.message
                   for f in findings)

    def test_cycle_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/a.py": "import pkg.mid.b\n",
                "pkg/mid/b.py": "import pkg.mid.a\n",
            },
        )
        findings = check(root, ("RPR101",))
        assert rules_of(findings) == ["RPR101"]
        assert "import cycle" in findings[0].message
        assert "pkg.mid.a -> pkg.mid.b -> pkg.mid.a" in findings[0].message

    def test_lazy_cycle_still_flagged(self, tmp_path: Path):
        # A deferred import is still a runtime cycle for layering.
        root = make_project(
            tmp_path,
            {
                "pkg/mid/a.py": "import pkg.mid.b\n",
                "pkg/mid/b.py": "def f():\n    import pkg.mid.a\n",
            },
        )
        assert any(
            "import cycle" in f.message for f in check(root, ("RPR101",))
        )

    def test_typing_back_edge_is_not_a_cycle(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/a.py": "import pkg.mid.b\n",
                "pkg/mid/b.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    import pkg.mid.a\n"
                ),
            },
        )
        assert check(root, ("RPR101",)) == []

    def test_pragma_suppresses(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {"pkg/low/bad.py": "import pkg.high  # repro: ignore[RPR101]\n"},
        )
        assert check(root, ("RPR101",)) == []


class TestRPR102WorkerState:
    REGISTRY = (
        "CACHE = {}\n"
        "def remember(key, value):\n"
        "    CACHE[key] = value\n"
    )

    def test_mutated_global_in_worker_closure_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": self.REGISTRY,
                "pkg/low/worker.py": "import pkg.low.registry\n",
            },
        )
        findings = check(root, ("RPR102",))
        assert rules_of(findings) == ["RPR102"]
        assert "CACHE" in findings[0].message
        assert findings[0].line == 1

    def test_unreachable_module_silent(self, tmp_path: Path):
        root = make_project(
            tmp_path, {"pkg/mid/registry.py": self.REGISTRY}
        )
        assert check(root, ("RPR102",)) == []

    def test_unmutated_global_silent(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": "TABLE = {1: 2}\n",
                "pkg/low/worker.py": "import pkg.low.registry\n",
            },
        )
        assert check(root, ("RPR102",)) == []

    def test_local_shadow_silent(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": (
                    "CACHE = {}\n"
                    "def scratch():\n"
                    "    CACHE = {}\n"
                    "    CACHE.update({1: 2})\n"
                    "    return CACHE\n"
                ),
                "pkg/low/worker.py": "import pkg.low.registry\n",
            },
        )
        assert check(root, ("RPR102",)) == []

    def test_global_statement_rebinding_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": (
                    "HOOKS = []\n"
                    "def install(hook):\n"
                    "    global HOOKS\n"
                    "    HOOKS = HOOKS + [hook]\n"
                ),
                "pkg/low/worker.py": "import pkg.low.registry\n",
            },
        )
        assert rules_of(check(root, ("RPR102",))) == ["RPR102"]

    def test_cross_module_mutation_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": "CACHE = {}\n",
                "pkg/low/worker.py": "import pkg.low.registry\n",
                "pkg/mid/writer.py": (
                    "import pkg.low.registry as registry\n"
                    "def poke(k, v):\n"
                    "    registry.CACHE[k] = v\n"
                ),
            },
        )
        findings = check(root, ("RPR102",))
        assert rules_of(findings) == ["RPR102"]
        # Anchored at the state's binding, not the (possibly many) writers.
        assert findings[0].path == "src/pkg/low/registry.py"

    def test_pragma_suppresses(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/registry.py": self.REGISTRY.replace(
                    "CACHE = {}", "CACHE = {}  # repro: ignore[RPR102]"
                ),
                "pkg/low/worker.py": "import pkg.low.registry\n",
            },
        )
        assert check(root, ("RPR102",)) == []


class TestRPR103Picklability:
    def test_generator_field_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from dataclasses import dataclass\n"
                    "import numpy as np\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    rng: np.random.Generator\n"
                ),
            },
        )
        findings = check(root, ("RPR103",))
        assert rules_of(findings) == ["RPR103"]
        assert "live RNG stream" in findings[0].message

    def test_open_handle_field_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from dataclasses import dataclass\n"
                    "from typing import TextIO\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    log: TextIO\n"
                ),
            },
        )
        assert any(
            "open file handle" in f.message for f in check(root, ("RPR103",))
        )

    def test_lambda_default_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from typing import Callable\n"
                    "class Box:\n"
                    "    key: Callable = lambda self: 0\n"
                ),
            },
        )
        findings = check(root, ("RPR103",))
        assert any("defaults to a lambda" in f.message for f in findings)

    def test_lambda_default_factory_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from dataclasses import dataclass, field\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    items: list = field(default_factory=lambda: [])\n"
                ),
            },
        )
        assert any(
            "default_factory" in f.message for f in check(root, ("RPR103",))
        )

    def test_transitive_closure_flagged(self, tmp_path: Path):
        # Box itself is clean; its field's type carries the hazard.
        root = make_project(
            tmp_path,
            {
                "pkg/low/inner.py": (
                    "from dataclasses import dataclass\n"
                    "import numpy as np\n"
                    "@dataclass\n"
                    "class Inner:\n"
                    "    rng: np.random.Generator\n"
                ),
                "pkg/low/payload.py": (
                    "from dataclasses import dataclass\n"
                    "from pkg.low.inner import Inner\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    inner: Inner\n"
                ),
            },
        )
        findings = check(root, ("RPR103",))
        assert rules_of(findings) == ["RPR103"]
        assert findings[0].path == "src/pkg/low/inner.py"

    def test_lambda_at_construction_site_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "def build():\n"
                    "    return Box(seed=lambda: 3)\n"
                ),
            },
        )
        findings = check(root, ("RPR103",))
        assert rules_of(findings) == ["RPR103"]
        assert "lambda passed into the Box payload" in findings[0].message

    def test_genexp_at_send_site_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/ship.py": (
                    "def ship(conn):\n"
                    "    conn.send(x for x in range(3))\n"
                ),
            },
        )
        findings = check(root, ("RPR103",))
        assert rules_of(findings) == ["RPR103"]
        assert "generator expression" in findings[0].message

    def test_clean_payload_silent(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "def build():\n"
                    "    return Box(seed=7)\n"
                ),
            },
        )
        assert check(root, ("RPR103",)) == []

    def test_missing_payload_type_reported(self, tmp_path: Path):
        root = make_project(
            tmp_path, {}, payloads='"pkg.low.payload.Ghost"'
        )
        findings = check(root, ("RPR103",))
        assert rules_of(findings) == ["RPR103"]
        assert findings[0].path == "pyproject.toml"
        assert "Ghost" in findings[0].message


class TestRPR104RngEscape:
    def test_producer_result_into_payload_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "from pkg.util.rng import as_rng\n"
                    "def build():\n"
                    "    rng = as_rng(7)\n"
                    "    return Box(seed=rng)\n"
                ),
            },
        )
        findings = check(root, ("RPR104",))
        assert rules_of(findings) == ["RPR104"]
        assert "live RNG stream escapes" in findings[0].message

    def test_direct_producer_call_argument_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "from numpy.random import default_rng\n"
                    "def build():\n"
                    "    return Box(seed=default_rng(3))\n"
                ),
            },
        )
        assert rules_of(check(root, ("RPR104",))) == ["RPR104"]

    def test_derive_into_send_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/ship.py": (
                    "def ship(conn, factory):\n"
                    "    stream = factory.derive('node')\n"
                    "    conn.send(stream)\n"
                ),
            },
        )
        assert rules_of(check(root, ("RPR104",))) == ["RPR104"]

    def test_seed_is_fine(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "def build(seed):\n"
                    "    return Box(seed=seed)\n"
                ),
            },
        )
        assert check(root, ("RPR104",)) == []

    def test_self_assign_inside_payload_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from pkg.util.rng import as_rng\n"
                    "class Box:\n"
                    "    def __init__(self, seed):\n"
                    "        self.seed = seed\n"
                    "        self._rng = as_rng(seed)\n"
                ),
            },
        )
        findings = check(root, ("RPR104",))
        assert rules_of(findings) == ["RPR104"]
        assert "self._rng" in findings[0].message

    def test_tainted_local_self_assign_flagged(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/low/payload.py": (
                    "from pkg.util.rng import fallback_rng\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        stream = fallback_rng()\n"
                    "        self.stream = stream\n"
                ),
            },
        )
        assert rules_of(check(root, ("RPR104",))) == ["RPR104"]

    def test_pragma_suppresses(self, tmp_path: Path):
        root = make_project(
            tmp_path,
            {
                "pkg/mid/build.py": (
                    "from pkg.low.payload import Box\n"
                    "from pkg.util.rng import as_rng\n"
                    "def build():\n"
                    "    rng = as_rng(7)\n"
                    "    return Box(seed=rng)  # repro: ignore[RPR104]\n"
                ),
            },
        )
        assert check(root, ("RPR104",)) == []


class TestCheckerCli:
    def test_clean_project_exits_zero(self, tmp_path: Path, monkeypatch):
        make_project(tmp_path, {})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 0

    def test_violation_exits_one(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/low/bad.py": "import pkg.high\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out and "src/pkg/low/bad.py:1" in out

    def test_github_format(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/low/bad.py": "import pkg.high\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/pkg/low/bad.py,line=1" in out
        assert "title=repro-check RPR101" in out

    def test_json_format(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/low/bad.py": "import pkg.high\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPR101"
        assert set(payload["rules"]) == set(RULE_CODES)
        assert payload["files_checked"] > 5

    def test_select_unknown_rule_is_usage_error(
        self, tmp_path: Path, monkeypatch
    ):
        make_project(tmp_path, {})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--select", "RPR001,RPR999"]) == 2

    def test_select_restricts_rules(self, tmp_path: Path, monkeypatch):
        make_project(tmp_path, {"pkg/low/bad.py": "import pkg.high\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--select", "RPR102"]) == 0

    def test_missing_contract_is_usage_error(
        self, tmp_path: Path, monkeypatch, capsys
    ):
        make_project(tmp_path, {})
        (tmp_path / "pyproject.toml").write_text("[tool.other]\nx = 1\n")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 2
        assert "[tool.repro.check]" in capsys.readouterr().out

    def test_duplicate_unit_in_bands_rejected(self, tmp_path: Path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.check]\nlayers = [[\"a\"], [\"a\"]]\n"
        )
        with pytest.raises(CheckConfigError):
            load_check_config(pyproject)

    def test_syntax_error_fails(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/low/broken.py": "def oops(:\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 1
        assert "parse failure" in capsys.readouterr().out


#: One planted violation per rule: (files, path of the finding, its line).
_BOX_WITH_RNG = (
    "from dataclasses import dataclass\n"
    "import numpy as np\n"
    "@dataclass\n"
    "class Box:\n"
    "    rng: np.random.Generator\n"
)
_RNG_INTO_BOX = (
    "from pkg.low.payload import Box\n"
    "from pkg.util.rng import as_rng\n"
    "def build() -> Box:\n"
    "    rng = as_rng(7)\n"
    "    return Box(seed=rng)\n"
)
PLANTED = {
    "RPR001": ({"pkg/mid/v.py": "import numpy as np\nRNG = np.random.default_rng()\n"},
               "pkg/mid/v.py", 2),
    "RPR002": ({"pkg/mid/v.py": "import time\nT = time.time()\n"}, "pkg/mid/v.py", 2),
    "RPR003": ({"pkg/mid/v.py": "for x in {1, 2}:\n    pass\n"}, "pkg/mid/v.py", 1),
    "RPR004": ({"pkg/mid/v.py": "X = 1\nY = X == 1.0\n"}, "pkg/mid/v.py", 2),
    "RPR005": ({"pkg/mid/v.py": "def run(x) -> int:\n    return x\n"}, "pkg/mid/v.py", 1),
    "RPR101": ({"pkg/low/v.py": "import pkg.high\n"}, "pkg/low/v.py", 1),
    "RPR102": ({"pkg/low/registry.py": "CACHE = {}\n"
                "def remember(key: int, value: int) -> None:\n"
                "    CACHE[key] = value\n",
                "pkg/low/worker.py": "import pkg.low.registry\n"},
               "pkg/low/registry.py", 1),
    "RPR103": ({"pkg/low/payload.py": _BOX_WITH_RNG}, "pkg/low/payload.py", 5),
    "RPR104": ({"pkg/mid/build.py": _RNG_INTO_BOX}, "pkg/mid/build.py", 5),
}


class TestEveryRuleEndToEnd:
    """Either family dropping out of the merged run fails here."""

    @pytest.mark.parametrize("rule", RULE_CODES)
    def test_planted_violation_is_reported_and_pragma_silences_it(
        self, rule, tmp_path: Path, monkeypatch, capsys
    ):
        files, rel, line = PLANTED[rule]
        make_project(tmp_path, files)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out
        assert f"src/{rel}:{line}:" in out and f": {rule} " in out
        assert cli_main(["check", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert f"::error file=src/{rel},line={line}," in out
        assert f"title=repro-check {rule}::" in out
        assert cli_main(["check", "--format", "json"]) == 1
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        assert (finding["rule"], finding["path"], finding["line"]) == (
            rule, f"src/{rel}", line
        )

        def with_pragma(code: str) -> int:
            lines = files[rel].splitlines()
            lines[line - 1] += f"  # repro: ignore[{code}]"
            (tmp_path / "src" / rel).write_text("\n".join(lines) + "\n")
            return cli_main(["check"])

        other = RULE_CODES[RULE_CODES.index(rule) - 1]
        assert with_pragma(other) == 1
        assert with_pragma(rule) == 0

    def test_each_module_is_parsed_exactly_once(
        self, tmp_path: Path, monkeypatch
    ):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.check]\npackage = "pkg"\nlayers = [["a", "b"]]\n'
        )
        for name, source in {
            "__init__": "", "a": "import pkg.b\n", "b": "X = {1}\n"
        }.items():
            target = tmp_path / "src" / "pkg" / f"{name}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        monkeypatch.chdir(tmp_path)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert cli_main(["check"]) == 0
        assert sorted(parsed) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py"
        ]


class TestRepoIsClean:
    def test_src_tree_sweeps_clean(self):
        # The acceptance gate: the shipped tree keeps the determinism
        # discipline per file, satisfies the layering contract, keeps
        # worker closures free of mutated globals, and ships no
        # unpicklable or RNG-carrying payloads — nothing grandfathered.
        repo = Path(__file__).resolve().parent.parent
        config = load_check_config(repo / "pyproject.toml")
        project = build_project(repo / "src", config.package, rel_root=repo)
        findings = run_rules(project, config, RULE_CODES)
        assert len(project.modules) > 80
        assert findings == []
        # ... and with no waived upward edge: every band imports downward.
        assert config.layer_waivers == ()

    def test_contract_covers_every_unit(self):
        # No unit may dodge the contract by simply not being listed.
        repo = Path(__file__).resolve().parent.parent
        config = load_check_config(repo / "pyproject.toml")
        project = build_project(repo / "src", config.package, rel_root=repo)
        bands = config.band_of()
        units = {
            module.unit for module in project.modules.values() if module.unit
        }
        assert units <= set(bands)
