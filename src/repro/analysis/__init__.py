"""``repro.analysis`` — the static analyzer behind ``repro check``.

One command, one pass: the package is parsed once into a project model
(:mod:`repro.analysis.modgraph`: one ``ast`` tree per module plus the
classified import graph) and two rule families run over it through one
reporter (:mod:`repro.analysis.findings`).

Per-file rules (:mod:`repro.analysis.rules`) — the reproducibility
discipline at rest, before code runs:

========  ==============================================================
RPR001    no-unseeded-rng — generators must flow through util/rng
RPR002    no-wallclock — host-clock reads banned outside obs//benchmarks/
RPR003    no-set-iteration — set order is hash-randomized across runs
RPR004    no-float-equality — exact ==/!= on float literals
RPR005    public-api-annotations — exported functions fully annotated
========  ==============================================================

Whole-program rules (:mod:`repro.analysis.project_rules`, on the symbol
table of :mod:`repro.analysis.symbols`) — the architecture contract
declared in ``[tool.repro.check]``:

========  ==============================================================
RPR101    layering-contract — layer bands respected, import graph acyclic
RPR102    worker-shared-state — no mutated module globals in worker closures
RPR103    payload-picklability — Pipe payload types statically picklable
RPR104    rng-escape — live Generator streams never cross process/digest
          boundaries (ship seeds or an RngFactory)
========  ==============================================================

DESIGN.md §10 has the catalog and the exit-code contract.  The one
suppression is a reviewed pragma on the line: ``# repro:
ignore[RPRxxx]`` (or ``# repro: rng-root`` for RPR001).
"""

from repro.analysis.checker import load_check_config, run_rules
from repro.analysis.findings import RULE_CODES, RULE_SUMMARIES, Finding
from repro.analysis.modgraph import ProjectGraph, build_project, parse_module
from repro.analysis.project_rules import CheckConfig
from repro.analysis.symbols import SymbolTable

__all__ = [
    "CheckConfig",
    "Finding",
    "ProjectGraph",
    "RULE_CODES",
    "RULE_SUMMARIES",
    "SymbolTable",
    "build_project",
    "load_check_config",
    "parse_module",
    "run_rules",
]
