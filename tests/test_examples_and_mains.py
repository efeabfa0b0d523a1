"""Smoke coverage for the runnable surfaces: examples and figure reports.

Examples are user-facing documentation; a broken example is a broken
promise.  These tests compile and run every example and exercise the
cheap figure entry points end-to-end (figures run at smoke scale via direct
function calls elsewhere; here we check the printing paths).
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_runs(self, path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr

    def test_expected_examples_present(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "file_transfer",
            "mesh_comparison",
            "distributed_optimization",
            "multi_unicast",
            "adaptive_replanning",
            "trace_analysis",
        } <= names


class TestModuleMains:
    def test_fig1_main_prints_table(self, capsys):
        from repro.experiments.fig1_convergence import report, run_fig1

        report(run_fig1())
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "LP optimum" in out

    def test_coding_speed_main(self, capsys):
        from repro.experiments.coding_speed import (
            CodecUnavailableError,
            report,
            run_coding_speed,
        )

        try:
            points = run_coding_speed(shapes=[(8, 64), (16, 128)])
        except CodecUnavailableError:
            pytest.skip("no C compiler builds the kernels here")
        report(points)
        out = capsys.readouterr().out
        assert "8x64" in out and "16x128" in out
        assert "(paper: 3-5x)" in out
        assert out.splitlines()[-1].startswith("status: ")

    def test_cli_fig1(self, capsys):
        from repro.cli import main

        assert main(["fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_cli_convergence_help(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["convergence"])
        assert callable(args.func)


class TestDocumentationFiles:
    def test_docs_exist_and_are_substantial(self):
        root = pathlib.Path(__file__).parent.parent
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (root / name).read_text()
            assert len(text) > 2000, f"{name} is suspiciously short"

    def test_experiments_md_covers_every_figure(self):
        root = pathlib.Path(__file__).parent.parent
        text = (root / "EXPERIMENTS.md").read_text()
        for token in ("Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "91", "3-5"):
            assert token in text

    def test_design_md_maps_modules(self):
        root = pathlib.Path(__file__).parent.parent
        text = (root / "DESIGN.md").read_text()
        for module in (
            "repro/coding/gf256.py",
            "repro/optimization/rate_control.py",
            "repro/emulator/scheduler.py",
            "repro/protocols/omnc.py",
        ):
            assert module in text, f"{module} missing from DESIGN.md"
