"""The ``repro check`` entry point: whole-program architecture analysis.

Where ``repro lint`` (:mod:`repro.analysis.runner`) judges files one at
a time, ``repro check`` parses the entire package into a module graph
and symbol table and runs the RPR1xx rule family
(:mod:`repro.analysis.project_rules`) over it.  Everything downstream
of the rules — baseline matching, ``# repro: ignore[...]`` pragmas,
output formats, exit codes — is shared with the linter, so the two
commands behave identically from CI's point of view.

The contract the rules enforce lives in ``[tool.repro.check]`` in
``pyproject.toml``:

* ``layers`` — ordered bands of package units, lowest first;
* ``layer-waivers`` — ``"importer -> imported"`` pairs exempted from
  the layering check, each justified by an adjacent comment;
* ``payload-types`` — qualified names of classes shipped across process
  boundaries (``CoreInit``, ``JobSpec``);
* ``worker-roots`` — modules whose import closure runs inside worker
  processes;
* ``rng-modules`` — modules whose functions mint RNG streams.

Exit codes: ``0`` clean (or grandfathered), ``1`` new findings / stale
baseline / unparseable source, ``2`` usage or contract errors.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, TextIO, Tuple

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.findings import (
    CHECK_RULE_CODES,
    CHECK_RULE_SUMMARIES,
    Finding,
)
from repro.analysis.modgraph import build_project
from repro.analysis.project_rules import CheckConfig, run_project_rules
from repro.analysis.runner import format_github, format_json, format_text

DEFAULT_BASELINE = "repro-check-baseline.json"

__all__ = [
    "DEFAULT_BASELINE",
    "configure_parser",
    "load_check_config",
    "main",
    "run",
]


class CheckConfigError(ValueError):
    """Raised when ``[tool.repro.check]`` is missing or malformed."""


def _load_toml(path: Path) -> Dict[str, Any]:
    """Parse a TOML file with whatever parser this interpreter has.

    Prefers stdlib ``tomllib`` (3.11+), falls back to ``tomli`` (pulled
    in by build tooling on 3.10), and finally to a minimal reader that
    understands exactly the subset ``pyproject.toml``'s
    ``[tool.repro.check]`` table uses: bare sections plus ``key =
    <python-literal-compatible value>`` assignments (strings, numbers,
    booleans via true/false, and arbitrarily nested arrays of those).
    """
    try:
        import tomllib as toml_parser
    except ModuleNotFoundError:  # pragma: no cover - py3.10 path
        try:
            import tomli as toml_parser  # type: ignore[import-not-found, no-redef]
        except ModuleNotFoundError:
            return _parse_minimal_toml(path.read_text(encoding="utf-8"))
    with open(path, "rb") as handle:
        loaded: Dict[str, Any] = toml_parser.load(handle)
        return loaded


def _parse_minimal_toml(text: str) -> Dict[str, Any]:  # pragma: no cover
    """Last-resort TOML subset reader (no tomllib/tomli available)."""
    root: Dict[str, Any] = {}
    table = root
    pending_key: str | None = None
    pending_value = ""
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if pending_key is None:
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                table = root
                for part in line[1:-1].strip().split("."):
                    table = table.setdefault(part.strip().strip('"'), {})
                continue
            key, _, value = line.partition("=")
            pending_key, pending_value = key.strip().strip('"'), value.strip()
        else:
            pending_value += " " + line
        literal = (
            pending_value.replace("true", "True").replace("false", "False")
        )
        try:
            table[pending_key] = ast.literal_eval(literal)
        except (SyntaxError, ValueError):
            continue  # value continues on the next line (multiline array)
        pending_key, pending_value = None, ""
    return root


def _string_tuple(value: Any, name: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise CheckConfigError(f"[tool.repro.check] {name} must be a string array")
    return tuple(value)


def load_check_config(pyproject: Path) -> CheckConfig:
    """Build a :class:`CheckConfig` from ``[tool.repro.check]``."""
    if not pyproject.is_file():
        raise CheckConfigError(f"pyproject not found: {pyproject}")
    data = _load_toml(pyproject)
    section = data.get("tool", {}).get("repro", {}).get("check")
    if not isinstance(section, dict):
        raise CheckConfigError(
            f"{pyproject} has no [tool.repro.check] section — the layering "
            "contract must be declared before 'repro check' can run"
        )
    raw_layers = section.get("layers", [])
    if not isinstance(raw_layers, list):
        raise CheckConfigError("[tool.repro.check] layers must be an array")
    layers: List[Tuple[str, ...]] = []
    for band in raw_layers:
        if isinstance(band, str):
            layers.append((band,))
        else:
            layers.append(_string_tuple(band, "layers band"))
    seen: Dict[str, int] = {}
    for rank, band_units in enumerate(layers):
        for unit in band_units:
            if unit in seen:
                raise CheckConfigError(
                    f"[tool.repro.check] unit '{unit}' appears in bands "
                    f"{seen[unit]} and {rank}"
                )
            seen[unit] = rank
    return CheckConfig(
        package=str(section.get("package", "repro")),
        layers=tuple(layers),
        layer_waivers=_string_tuple(
            section.get("layer-waivers", []), "layer-waivers"
        ),
        payload_types=_string_tuple(
            section.get("payload-types", []), "payload-types"
        ),
        worker_roots=_string_tuple(
            section.get("worker-roots", []), "worker-roots"
        ),
        rng_modules=_string_tuple(
            section.get("rng-modules", ["repro.util.rng"]), "rng-modules"
        ),
    )


# -- CLI -------------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro check``'s arguments to ``parser``."""
    parser.add_argument(
        "--src",
        default="src",
        metavar="DIR",
        help="source root the package lives under (default: src)",
    )
    parser.add_argument(
        "--pyproject",
        default="pyproject.toml",
        metavar="PATH",
        help="pyproject.toml holding [tool.repro.check] (default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github = workflow error annotations)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="prune fixed entries from the baseline (never adds new ones)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all RPR1xx)",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print grandfathered findings (text format)",
    )


def run(args: argparse.Namespace, stream: TextIO | None = None) -> int:
    """Execute a configured check run; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    if args.select is None:
        select = CHECK_RULE_CODES
    else:
        select = tuple(
            code.strip() for code in args.select.split(",") if code.strip()
        )
        unknown = [code for code in select if code not in CHECK_RULE_CODES]
        if unknown:
            print(
                f"repro check: unknown rule(s): {', '.join(unknown)}", file=out
            )
            return 2

    try:
        config = load_check_config(Path(args.pyproject))
    except CheckConfigError as exc:
        print(f"repro check: {exc}", file=out)
        return 2

    errors: List[str] = []
    findings: List[Finding] = []
    checked = 0
    try:
        project = build_project(Path(args.src), config.package)
    except FileNotFoundError as exc:
        print(f"repro check: {exc}", file=out)
        return 2
    except SyntaxError as exc:
        errors.append(f"{exc.filename}: {exc.msg} (line {exc.lineno})")
    else:
        checked = len(project.modules)
        findings = run_project_rules(project, config, select)

    baseline_path = (
        Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    )
    baseline: Counter[Tuple[str, str, str]] = Counter()
    if baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"repro check: {exc}", file=out)
            return 2
    elif args.baseline is not None:
        print(f"repro check: baseline {baseline_path} not found", file=out)
        return 2

    new, matched, stale = partition(findings, baseline)

    if args.update_baseline:
        if new:
            for line in format_text(new, matched, show_baselined=False):
                print(line, file=out)
            print(
                f"repro check: refusing to update baseline with {len(new)} "
                "new finding(s); fix, pragma or waive them first (the "
                "baseline only shrinks)",
                file=out,
            )
            return 1
        save_baseline(baseline_path, matched)
        print(
            f"repro check: baseline rewritten with {len(matched)} entr"
            f"{'y' if len(matched) == 1 else 'ies'} "
            f"({stale} stale pruned) -> {baseline_path}",
            file=out,
        )
        return 0

    if args.format == "json":
        print(
            format_json(
                new, matched, stale, checked, errors, rules=CHECK_RULE_SUMMARIES
            ),
            file=out,
        )
    elif args.format == "github":
        for line in format_github(new, tool="repro-check"):
            print(line, file=out)
        for error in errors:
            print(f"::error::repro check parse failure: {error}", file=out)
    else:
        for line in format_text(new, matched, show_baselined=args.show_baselined):
            print(line, file=out)
        for error in errors:
            print(f"repro check: parse failure: {error}", file=out)

    failed = bool(new or errors or stale)
    if args.format != "json":
        summary = (
            f"repro check: {checked} module(s), {len(new)} new finding(s), "
            f"{len(matched)} baselined, {stale} stale baseline entr"
            f"{'y' if stale == 1 else 'ies'}"
        )
        print(summary, file=out)
        if stale:
            print(
                "repro check: stale baseline entries mean code got fixed — "
                "run with --update-baseline to shrink the baseline",
                file=out,
            )
    return 1 if failed else 0


def main(argv: List[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.analysis.checker``)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="whole-program architecture & cross-process determinism "
        "analysis for the repro tree",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
