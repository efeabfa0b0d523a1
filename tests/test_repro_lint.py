"""Tests for the per-file rule family of ``repro check`` (RPR001-RPR005).

Each rule gets positive (must flag) and negative (must stay silent)
fixtures, run as a one-module project through the same ``run_rules``
the command uses; pragma suppression and the CLI's exit codes / output
formats on a per-file finding are exercised end to end through
``repro.cli.main``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import (
    RULE_CODES,
    CheckConfig,
    Finding,
    ProjectGraph,
    parse_module,
    run_rules,
)
from repro.cli import main as cli_main
from tests.test_repro_check import make_project

FILE_RULES = tuple(code for code in RULE_CODES if code < "RPR100")


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    project = ProjectGraph("pkg", {"pkg.x": parse_module("pkg.x", path, source)})
    return run_rules(project, CheckConfig(), FILE_RULES)


def rules_of(source: str, path: str = "src/repro/x.py") -> list[str]:
    return [f.rule for f in lint_source(source, path)]


class TestRPR001NoUnseededRng:
    def test_default_rng_flagged(self):
        assert rules_of("import numpy as np\nrng = np.random.default_rng()\n") == [
            "RPR001"
        ]

    def test_seeded_default_rng_still_flagged(self):
        # Even a literal seed bypasses the named-stream discipline.
        assert "RPR001" in rules_of(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        )

    def test_bare_default_rng_import_flagged(self):
        src = "from numpy.random import default_rng\nrng = default_rng(3)\n"
        assert "RPR001" in rules_of(src)

    def test_legacy_numpy_global_flagged(self):
        assert "RPR001" in rules_of("import numpy as np\nnp.random.seed(1)\n")
        assert "RPR001" in rules_of("import numpy as np\nx = np.random.rand(4)\n")

    def test_stdlib_random_flagged(self):
        assert "RPR001" in rules_of("import random\nx = random.random()\n")
        assert "RPR001" in rules_of("import random\nr = random.Random(7)\n")

    def test_generator_method_calls_allowed(self):
        src = "def f(rng):\n    return rng.integers(0, 4) + rng.exponential()\n"
        assert "RPR001" not in rules_of(src)

    def test_seed_sequence_allowed(self):
        src = "import numpy as np\nseq = np.random.SeedSequence(entropy=5)\n"
        assert "RPR001" not in rules_of(src)

    def test_rng_root_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules_of(src, path="src/repro/util/rng.py") == []

    def test_rng_root_pragma(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)  # repro: rng-root\n"
        )
        assert rules_of(src) == []

    def test_rng_root_pragma_does_not_cover_other_rules(self):
        src = "import time\nt = time.time()  # repro: rng-root\n"
        assert "RPR002" in rules_of(src)


class TestRPR002NoWallclock:
    def test_time_time_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["RPR002"]

    def test_perf_counter_flagged(self):
        assert "RPR002" in rules_of("import time\nt = time.perf_counter()\n")
        assert "RPR002" in rules_of(
            "from time import perf_counter\nt = perf_counter()\n"
        )

    def test_datetime_now_flagged(self):
        assert "RPR002" in rules_of(
            "import datetime\nnow = datetime.datetime.now()\n"
        )
        assert "RPR002" in rules_of(
            "from datetime import datetime\nnow = datetime.now()\n"
        )

    def test_obs_and_benchmarks_allowed(self):
        src = "import time\nt = time.time()\n"
        assert rules_of(src, path="src/repro/obs/metrics.py") == []
        assert rules_of(src, path="benchmarks/bench_x.py") == []

    def test_pragma_suppresses(self):
        src = "import time\nt = time.time()  # repro: ignore[RPR002]\n"
        assert rules_of(src) == []

    def test_sleep_is_not_a_clock_read(self):
        assert rules_of("import time\ntime.sleep(1)\n") == []


class TestRPR003NoSetIteration:
    def test_for_over_set_literal(self):
        assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["RPR003"]

    def test_for_over_set_call(self):
        assert "RPR003" in rules_of("for x in set([3, 1]):\n    pass\n")

    def test_comprehension_over_set_variable(self):
        src = "s = {1, 2}\nout = [x for x in s]\n"
        assert "RPR003" in rules_of(src)

    def test_dict_comprehension_over_annotated_set_param(self):
        src = (
            "def f(nodes: set[int]) -> dict[int, int]:\n"
            "    return {n: 0 for n in nodes}\n"
        )
        assert "RPR003" in rules_of(src)

    def test_set_union_operator(self):
        src = "a = {1}\nb = {2}\nfor x in a | b:\n    pass\n"
        assert "RPR003" in rules_of(src)

    def test_intersection_method(self):
        src = "def f(a: set[int], b: set[int]) -> None:\n"
        src += "    for x in a.intersection(b):\n        pass\n"
        assert "RPR003" in rules_of(src)

    def test_sorted_set_allowed(self):
        assert rules_of("for x in sorted({3, 1}):\n    pass\n") == []

    def test_list_iteration_allowed(self):
        assert rules_of("for x in [1, 2]:\n    pass\n") == []

    def test_reassignment_to_list_clears_tracking(self):
        src = "s = {1, 2}\ns = sorted(s)\nfor x in s:\n    pass\n"
        assert rules_of(src) == []

    def test_membership_tests_allowed(self):
        # Only *iteration* is order-sensitive; membership is fine.
        assert rules_of("s = {1, 2}\nok = 1 in s\n") == []


class TestRPR004NoFloatEquality:
    def test_eq_float_literal(self):
        assert rules_of("def f(x: float) -> bool:\n    return x == 1.0\n") == [
            "RPR004"
        ]

    def test_neq_float_literal(self):
        assert "RPR004" in rules_of("def f(x: float) -> bool:\n    return 0.5 != x\n")

    def test_negative_literal(self):
        assert "RPR004" in rules_of("def f(x: float) -> bool:\n    return x == -1.0\n")

    def test_int_equality_allowed(self):
        assert rules_of("def f(x: int) -> bool:\n    return x == 1\n") == []

    def test_ordering_comparisons_allowed(self):
        assert rules_of("def f(x: float) -> bool:\n    return x <= 1.0\n") == []

    def test_pragma_suppresses(self):
        src = (
            "def f(x: float) -> bool:\n"
            "    return x == 0.0  # repro: ignore[RPR004]\n"
        )
        assert rules_of(src) == []


class TestRPR005PublicApiAnnotations:
    def test_missing_return_annotation(self):
        findings = lint_source("def run(x: int):\n    return x\n")
        assert [f.rule for f in findings] == ["RPR005"]
        assert "return annotation" in findings[0].message

    def test_missing_parameter_annotation(self):
        findings = lint_source("def run(x) -> int:\n    return x\n")
        assert [f.rule for f in findings] == ["RPR005"]
        assert "x" in findings[0].message

    def test_public_method_checked_and_self_skipped(self):
        src = (
            "class Engine:\n"
            "    def step(self, dt) -> None:\n"
            "        pass\n"
        )
        assert rules_of(src) == ["RPR005"]

    def test_init_requires_return_annotation(self):
        src = "class A:\n    def __init__(self, x: int):\n        self.x = x\n"
        assert rules_of(src) == ["RPR005"]

    def test_private_and_nested_functions_skipped(self):
        src = (
            "def _helper(x):\n"
            "    return x\n"
            "def public() -> None:\n"
            "    def inner(y):\n"
            "        return y\n"
            "    inner(1)\n"
        )
        assert rules_of(src) == []

    def test_fully_annotated_passes(self):
        src = (
            "def run(x: int, *args: str, flag: bool = False, **kw: object) -> int:\n"
            "    return x\n"
        )
        assert rules_of(src) == []


class TestPragmas:
    def test_multiple_codes_in_one_pragma(self):
        src = (
            "import time\n"
            "import numpy as np\n"
            "t = [time.time(), np.random.default_rng()]"
            "  # repro: ignore[RPR001, RPR002]\n"
        )
        assert rules_of(src) == []

    def test_pragma_only_covers_its_line(self):
        src = (
            "import time\n"
            "a = time.time()  # repro: ignore[RPR002]\n"
            "b = time.time()\n"
        )
        findings = lint_source(src)
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 3)]

    def test_pragma_on_continuation_line(self):
        # Black-style wrapping pushes the offending call (and its pragma)
        # past the statement's anchor line; any physical line of the
        # statement must honor the pragma.
        src = (
            "import time\n"
            "a = (\n"
            "    time.time()  # repro: ignore[RPR002]\n"
            ")\n"
        )
        assert rules_of(src) == []

    def test_pragma_on_multiline_call_arguments(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            "    42,\n"
            ")  # repro: ignore[RPR001]\n"
        )
        assert rules_of(src) == []

    def test_continuation_pragma_does_not_leak_past_statement(self):
        src = (
            "import time\n"
            "a = (\n"
            "    time.time()  # repro: ignore[RPR002]\n"
            ")\n"
            "b = time.time()\n"
        )
        findings = lint_source(src)
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 5)]

    def test_pragma_on_wrapped_signature(self):
        # RPR005 anchors on the def; a pragma on the wrapped signature's
        # closing line still counts.
        src = (
            "def run(\n"
            "    x,\n"
            "):  # repro: ignore[RPR005]\n"
            "    return x\n"
        )
        assert rules_of(src) == []


class TestCli:
    DIRTY = "import time\n\n\ndef run(x: int) -> float:\n    return time.time()\n"

    def test_exit_zero_on_clean_tree(self, tmp_path: Path, monkeypatch):
        make_project(tmp_path, {"pkg/mid/clean.py": "def run(x: int) -> int:\n    return x\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 0

    def test_exit_one_on_finding(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/mid/dirty.py": self.DIRTY})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out and "src/pkg/mid/dirty.py:5" in out

    def test_json_output(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/mid/dirty.py": self.DIRTY})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] > 5
        assert list(payload["rules"]) == sorted(RULE_CODES)
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPR002"
        assert finding["path"] == "src/pkg/mid/dirty.py"
        assert finding["line"] == 5

    def test_github_format(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/mid/dirty.py": self.DIRTY})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/pkg/mid/dirty.py,line=5" in out
        assert "title=repro-check RPR002" in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path: Path, monkeypatch):
        make_project(tmp_path, {})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--select", "RPR999"]) == 2

    def test_select_restricts_rules(self, tmp_path: Path, monkeypatch):
        make_project(tmp_path, {"pkg/mid/dirty.py": self.DIRTY})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--select", "RPR004,RPR101"]) == 0
        assert cli_main(["check", "--select", "RPR002"]) == 1

    def test_parse_error_fails(self, tmp_path: Path, monkeypatch, capsys):
        make_project(tmp_path, {"pkg/mid/broken.py": "def oops(:\n"})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check"]) == 1
        assert "parse failure: src/pkg/mid/broken.py" in capsys.readouterr().out

    def test_missing_source_directory_is_usage_error(
        self, tmp_path: Path, monkeypatch, capsys
    ):
        # A typo in the CI step must not pass green: `repro lint srcc`
        # used to report "0 file(s), 0 new finding(s)" and exit 0.
        make_project(tmp_path, {})
        monkeypatch.chdir(tmp_path)
        assert cli_main(["check", "--src", "srcc", "--select", "RPR002"]) == 2
        assert "srcc" in capsys.readouterr().out


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        # The acceptance gate: one pass over the shipped tree, all nine
        # rules, nothing grandfathered.
        repo = Path(__file__).resolve().parent.parent
        assert cli_main(["check", "--src", str(repo / "src"),
                         "--pyproject", str(repo / "pyproject.toml")]) == 0
