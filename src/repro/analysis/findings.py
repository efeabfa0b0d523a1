"""Finding model, rule catalog and the reporter both rule families share.

A :class:`Finding` is one rule violation at one source location.  Every
rule — per-file (:mod:`repro.analysis.rules`) or whole-program
(:mod:`repro.analysis.project_rules`) — emits through one
:class:`Reporter`, which owns rule selection, the pragma table and the
source snippet.

Suppressions: a trailing ``# repro: ignore[RPR001,...]`` silences the
listed rules on that line; ``# repro: rng-root`` marks a line as an
intentional generator root (silences RPR001 only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.modgraph import ProjectGraph

#: The rule catalog; findings are reported in path/line order, the
#: catalog in this order.
RULE_SUMMARIES: dict[str, str] = {
    "RPR001": "no-unseeded-rng: random generators must come from util/rng streams",
    "RPR002": "no-wallclock: wall-clock reads are banned outside obs/ and benchmarks/",
    "RPR003": "no-set-iteration: iterating a set is nondeterministic across processes",
    "RPR004": "no-float-equality: exact ==/!= on float literals hides tolerance bugs",
    "RPR005": "public-api-annotations: exported functions must be fully annotated",
    "RPR101": "layering-contract: package imports must respect the declared "
    "layer bands and stay acyclic (TYPE_CHECKING imports exempt)",
    "RPR102": "worker-shared-state: mutable module-level state reachable from "
    "worker processes diverges between parent and worker",
    "RPR103": "payload-picklability: types shipped over a Pipe must be "
    "statically picklable (no lambdas, generators, handles, RNG fields)",
    "RPR104": "rng-escape: live Generator streams must not cross process or "
    "digest boundaries — ship seeds or an RngFactory instead",
}

RULE_CODES: tuple[str, ...] = tuple(RULE_SUMMARIES)

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*(?:(?P<root>rng-root)|ignore\[(?P<rules>[A-Z0-9,\s]+)\])"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }


def _suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule codes suppressed on that line."""
    table: dict[int, frozenset[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        if match.group("root"):
            table[number] = frozenset({"RPR001"})
        else:
            codes = [code.strip() for code in match.group("rules").split(",")]
            table[number] = frozenset(code for code in codes if code)
    return table


class Reporter:
    """Collect the selected rules' findings, minus pragma-suppressed ones."""

    def __init__(self, project: ProjectGraph, select: Iterable[str]) -> None:
        self._project = project
        self._select = frozenset(select)
        #: module -> (pragma table, source lines), built on first report
        self._sources: dict[str, tuple[dict[int, frozenset[str]], list[str]]] = {}
        self.findings: list[Finding] = []

    def report(
        self,
        rule: str,
        module: str,
        lineno: int,
        col: int,
        message: str,
        *,
        end_lineno: int | None = None,
    ) -> None:
        """A finding anchored at ``lineno``/``col`` (0-based) of ``module``.

        With ``end_lineno`` a pragma on any physical line of the
        statement counts — black-style formatting regularly pushes the
        offending expression (and the trailing comment) past the anchor
        line.
        """
        if rule not in self._select:
            return
        info = self._project.modules[module]
        if module not in self._sources:
            self._sources[module] = (
                _suppressions(info.source),
                info.source.splitlines(),
            )
        suppressed, lines = self._sources[module]
        if any(
            rule in suppressed.get(at, frozenset())
            for at in range(lineno, (end_lineno or lineno) + 1)
        ):
            return
        snippet = lines[lineno - 1].strip() if 1 <= lineno <= len(lines) else ""
        self.findings.append(
            Finding(
                rule=rule,
                path=info.path,
                line=lineno,
                column=col + 1,
                message=message,
                snippet=snippet,
            )
        )

    def report_config(self, rule: str, message: str) -> None:
        """A finding against the contract itself (no source anchor)."""
        if rule in self._select:
            self.findings.append(
                Finding(
                    rule=rule,
                    path="pyproject.toml",
                    line=1,
                    column=1,
                    message=message,
                    snippet="[tool.repro.check]",
                )
            )
