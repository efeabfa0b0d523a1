"""``repro check``: the contract loader, the one run and its formats.

The command parses the package once into the project model
(:func:`repro.analysis.modgraph.build_project`) and runs both rule
families over it — per-file (:mod:`repro.analysis.rules`) and
whole-program (:mod:`repro.analysis.project_rules`) — through one
:class:`~repro.analysis.findings.Reporter`.

The contract the whole-program rules enforce lives in
``[tool.repro.check]`` in ``pyproject.toml``:

* ``layers`` — ordered bands of package units, lowest first;
* ``layer-waivers`` — ``"importer -> imported"`` pairs exempted from
  the layering check, each justified by an adjacent comment;
* ``payload-types`` — qualified names of classes shipped across process
  boundaries (``CoreInit``, ``JobSpec``);
* ``worker-roots`` — modules whose import closure runs inside worker
  processes;
* ``rng-modules`` — modules whose functions mint RNG streams.

Exit codes: ``0`` clean, ``1`` findings or unparseable source, ``2``
usage or contract errors (unknown rule, missing contract, missing
source directory).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, TextIO, Tuple

from repro.analysis.findings import (
    RULE_CODES,
    RULE_SUMMARIES,
    Finding,
    Reporter,
)
from repro.analysis.modgraph import ProjectGraph, build_project
from repro.analysis.project_rules import CheckConfig, check_project
from repro.analysis.rules import check_modules

__all__ = [
    "CheckConfigError",
    "configure_parser",
    "load_check_config",
    "run",
    "run_rules",
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


def run_rules(
    project: ProjectGraph,
    config: CheckConfig,
    select: Sequence[str] = RULE_CODES,
) -> List[Finding]:
    """The ``select``-ed rules' findings on ``project``, in report order."""
    reporter = Reporter(project, select)
    check_modules(project, reporter)
    check_project(project, config, reporter)
    return sorted(reporter.findings, key=Finding.sort_key)


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
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all nine)",
    )


def _render(
    style: str, findings: List[Finding], errors: List[str], checked: int
) -> Iterator[str]:
    if style == "json":
        yield json.dumps(
            {
                "findings": [finding.to_dict() for finding in findings],
                "files_checked": checked,
                "parse_errors": errors,
                "rules": RULE_SUMMARIES,
            },
            indent=2,
            sort_keys=True,
        )
        return
    for finding in findings:
        if style == "github":
            yield (
                f"::error file={finding.path},line={finding.line},"
                f"col={finding.column},title=repro-check {finding.rule}::"
                f"{finding.message}"
            )
        else:
            yield (
                f"{finding.path}:{finding.line}:{finding.column}: "
                f"{finding.rule} {finding.message}"
            )
    for error in errors:
        if style == "github":
            yield f"::error::repro check parse failure: {error}"
        else:
            yield f"repro check: parse failure: {error}"
    yield f"repro check: {checked} module(s), {len(findings)} finding(s)"


def run(args: argparse.Namespace, stream: TextIO | None = None) -> int:
    """Execute a configured check run; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    select: Tuple[str, ...] = RULE_CODES
    if args.select is not None:
        select = tuple(
            code.strip() for code in args.select.split(",") if code.strip()
        )
        unknown = [code for code in select if code not in RULE_CODES]
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
        findings = run_rules(project, config, select)

    for line in _render(args.format, findings, errors, checked):
        print(line, file=out)
    return 1 if findings or errors else 0
