"""The whole-program rule family of ``repro check`` (RPR101-RPR104).

Where the RPR0xx rules (:mod:`repro.analysis.rules`) judge one module at
a time, these rules need the *project*: the module graph and the symbol
table.  They guard the properties that keep the
cross-process digests honest:

* **RPR101 layering-contract** — the package DAG declared in
  ``pyproject.toml`` (``util < coding/obs < topology < routing <
  optimization < emulator < protocols < scenario < exec < experiments <
  cli``) must hold: no unit may import a unit in a higher band, and the
  module graph must be acyclic under runtime imports.  ``TYPE_CHECKING``
  imports are exempt (they never execute); function-scoped imports are
  *not* (they execute on first call — a deferred cycle is still a
  cycle).  Explicit waivers live next to the contract, each with its
  rationale.
* **RPR102 worker-shared-state** — mutable module-level state in any
  module an :class:`EngineCore`/:class:`WorkerPool` process imports is a
  cross-process hazard: the parent mutates its copy, the worker forks or
  re-imports its own, and the two silently diverge.  Flagged when a
  module-level container is mutated from function scope.
* **RPR103 payload-picklability** — types shipped across a ``Pipe``
  (``CoreInit``, ``JobSpec`` and every project class reachable through
  their field annotations) must be statically picklable: no lambda
  defaults, no generator/iterator or open-handle fields, no
  process/thread primitives, no function-local classes, no
  ``np.random.Generator`` fields, and no lambda/genexp arguments at
  construction or ``.send(...)`` sites.
* **RPR104 rng-escape** — a live ``Generator`` minted through
  :mod:`repro.util.rng` must not be stored on, or passed into, a
  payload-boundary type: ship the seed or the ``RngFactory`` and derive
  streams on the far side (that is what makes RNG consumption
  partition-independent).

All four report through the shared
:class:`~repro.analysis.findings.Reporter`, so pragmas
(``# repro: ignore[RPR10x]``) and output formats are the per-file
family's.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Reporter
from repro.analysis.modgraph import ImportEdge, ProjectGraph
from repro.analysis.symbols import (
    ClassInfo,
    FieldInfo,
    FunctionInfo,
    ModuleSymbols,
    SymbolTable,
    dotted_name,
)

__all__ = ["CheckConfig", "check_project"]

#: Fully-qualified annotation targets that make a payload field
#: statically unpicklable (or semantically unshippable), by hazard.
_FIELD_HAZARDS: Dict[str, str] = {
    "numpy.random.Generator": "a live RNG stream (ship a seed or RngFactory)",
    "numpy.random.RandomState": "a live RNG stream (ship a seed or RngFactory)",
    "numpy.random.BitGenerator": "a live RNG stream (ship a seed or RngFactory)",
    "typing.Generator": "a generator object (generators cannot pickle)",
    "typing.Iterator": "an iterator object (iterators cannot pickle)",
    "typing.AsyncGenerator": "a generator object (generators cannot pickle)",
    "collections.abc.Generator": "a generator object (generators cannot pickle)",
    "collections.abc.Iterator": "an iterator object (iterators cannot pickle)",
    "typing.IO": "an open file handle",
    "typing.TextIO": "an open file handle",
    "typing.BinaryIO": "an open file handle",
    "io.IOBase": "an open file handle",
    "io.TextIOWrapper": "an open file handle",
    "io.BufferedReader": "an open file handle",
    "io.BufferedWriter": "an open file handle",
    "io.FileIO": "an open file handle",
    "socket.socket": "a live socket",
    "threading.Lock": "a thread primitive",
    "threading.RLock": "a thread primitive",
    "threading.Condition": "a thread primitive",
    "threading.Event": "a thread primitive",
    "threading.Semaphore": "a thread primitive",
    "multiprocessing.Queue": "a process primitive",
    "multiprocessing.Pipe": "a process primitive",
    "multiprocessing.connection.Connection": "a process primitive",
}

#: RNG fields are an RPR104 concern too, but the picklability rule owns
#: the field-annotation check; RPR104 owns the dataflow.
_RNG_PRODUCER_TAILS = ("as_rng", "fallback_rng", "default_rng")


@dataclass(frozen=True)
class CheckConfig:
    """The ``[tool.repro.check]`` contract (see ``pyproject.toml``).

    Attributes:
        package: import package the project lives under.
        layers: ordered bands, lowest first; units in one band may
            import each other and anything in a lower band.
        layer_waivers: ``"importer -> imported"`` unit pairs exempted
            from the layering check (rationale lives as comments next to
            the contract entries).
        payload_types: qualified names of classes shipped across process
            boundaries; RPR103/RPR104 analyze them and every project
            class reachable through their field annotations.
        worker_roots: modules whose import closure runs inside worker
            processes (RPR102's blast radius).
        rng_modules: modules whose functions mint generators (RPR104
            producers), on top of ``numpy.random.default_rng``.
    """

    package: str = "repro"
    layers: Tuple[Tuple[str, ...], ...] = ()
    layer_waivers: Tuple[str, ...] = ()
    payload_types: Tuple[str, ...] = ()
    worker_roots: Tuple[str, ...] = ()
    rng_modules: Tuple[str, ...] = ("repro.util.rng",)

    def waived_pairs(self) -> frozenset[Tuple[str, str]]:
        pairs = []
        for waiver in self.layer_waivers:
            importer, _, target = waiver.partition("->")
            pairs.append((importer.strip(), target.strip()))
        return frozenset(pairs)

    def band_of(self) -> Dict[str, int]:
        return {
            unit: rank
            for rank, band in enumerate(self.layers)
            for unit in band
        }


# -- RPR101: layering + cycles ---------------------------------------------


def _check_layering(
    project: ProjectGraph, config: CheckConfig, reporter: Reporter
) -> None:
    bands = config.band_of()
    waived = config.waived_pairs()
    flagged_units: set[str] = set()
    for (importer_unit, target_unit), edges in sorted(
        project.unit_edges().items()
    ):
        if (importer_unit, target_unit) in waived:
            continue
        importer_band = bands.get(importer_unit)
        target_band = bands.get(target_unit)
        anchor = edges[0]
        for unit, band in ((importer_unit, importer_band), (target_unit, target_band)):
            if band is None and unit not in flagged_units:
                flagged_units.add(unit)
                reporter.report(
                    "RPR101",
                    anchor.importer,
                    anchor.lineno,
                    anchor.col,
                    f"package '{unit}' is not covered by the layering "
                    "contract in [tool.repro.check] — add it to a band "
                    "or waive the edge",
                )
        if importer_band is None or target_band is None:
            continue
        if importer_band < target_band:
            for edge in edges:
                reporter.report(
                    "RPR101",
                    edge.importer,
                    edge.lineno,
                    edge.col,
                    f"layering violation: '{importer_unit}' (band "
                    f"{importer_band}) imports '{target_unit}' (band "
                    f"{target_band}); invert the dependency, use a "
                    "TYPE_CHECKING import, or waive the edge with its "
                    "rationale in [tool.repro.check]",
                )


def _check_cycles(project: ProjectGraph, reporter: Reporter) -> None:
    for cycle in project.import_cycles():
        members = set(cycle)
        anchor: Optional[ImportEdge] = None
        for edge in project.runtime_edges():
            if edge.importer == cycle[0] and edge.target in members:
                anchor = edge
                break
        pretty = " -> ".join(cycle) + f" -> {cycle[0]}"
        if anchor is None:  # pragma: no cover - cycle implies an edge
            reporter.report_config("RPR101", f"import cycle: {pretty}")
            continue
        reporter.report(
            "RPR101",
            anchor.importer,
            anchor.lineno,
            anchor.col,
            f"import cycle: {pretty} (TYPE_CHECKING imports are exempt; "
            "function-scoped imports are not — a deferred cycle is "
            "still a runtime cycle)",
        )


# -- RPR102: worker-reachable mutable module state -------------------------


def _check_worker_state(
    project: ProjectGraph,
    table: SymbolTable,
    config: CheckConfig,
    reporter: Reporter,
) -> None:
    if not config.worker_roots:
        return
    reachable = project.reachable_from(config.worker_roots)
    # (module, global name) -> mutating function qualnames
    mutations: Dict[Tuple[str, str], List[str]] = {}
    for function in table.functions():
        module = table.modules[function.module]
        for name, _lineno in function.global_mutations:
            if name in module.mutable_globals:
                mutations.setdefault((function.module, name), []).append(
                    function.qualname
                )
        for prefix, attr, _lineno in function.attribute_mutations:
            resolved = module.resolve(prefix)
            target = table.modules.get(resolved)
            if target is not None and attr in target.mutable_globals:
                mutations.setdefault((resolved, attr), []).append(
                    function.qualname
                )
    for (module_name, name), mutators in sorted(mutations.items()):
        if module_name not in reachable:
            continue
        lineno, col = table.modules[module_name].mutable_globals[name]
        who = ", ".join(sorted(set(mutators))[:3])
        reporter.report(
            "RPR102",
            module_name,
            lineno,
            col,
            f"mutable module-level state '{name}' is mutated at runtime "
            f"(by {who}) and this module is imported by worker processes "
            "(reachable from "
            f"{'/'.join(config.worker_roots)}); parent and worker copies "
            "will diverge — pass state explicitly or pragma a "
            "deliberately process-local registry",
        )


# -- RPR103 / RPR104 helpers -----------------------------------------------


#: Payload classes plus every project class their fields reference,
#: by qualified name.
_PayloadClosure = Dict[str, ClassInfo]


def _annotation_names(
    module: ModuleSymbols, annotation: ast.expr
) -> List[str]:
    """Resolved dotted names mentioned anywhere in an annotation."""
    names: List[str] = []
    nodes: List[ast.expr] = [annotation]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                nodes.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_name(node)
            if dotted is not None:
                names.append(module.resolve(dotted))
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                nodes.append(child)
    return names


def _payload_closure(
    table: SymbolTable, config: CheckConfig, reporter: Reporter
) -> _PayloadClosure:
    closure: _PayloadClosure = {}
    queue: List[str] = []
    for qualified in config.payload_types:
        info = table.find_class(qualified)
        if info is None:
            reporter.report_config(
                "RPR103",
                f"configured payload type '{qualified}' was not found in "
                "the project — update [tool.repro.check] payload-types",
            )
            continue
        queue.append(info.qualname)
    while queue:
        qualname = queue.pop()
        if qualname in closure:
            continue
        info = table.find_class(qualname)
        if info is None:
            continue
        closure[qualname] = info
        module = table.modules[info.module]
        referenced: List[str] = []
        for field_info in info.fields:
            if field_info.annotation is not None:
                referenced.extend(
                    _annotation_names(module, field_info.annotation)
                )
            if field_info.default is not None:
                referenced.extend(_default_factory_names(module, field_info))
        for name in referenced:
            if table.find_class(name) is not None:
                queue.append(name)
    return closure


def _default_factory_names(
    module: ModuleSymbols, field_info: FieldInfo
) -> List[str]:
    """Class names referenced by a ``field(default_factory=X)`` default."""
    default = field_info.default
    if not isinstance(default, ast.Call):
        return []
    names: List[str] = []
    for keyword in default.keywords:
        if keyword.arg == "default_factory":
            dotted = dotted_name(keyword.value)
            if dotted is not None:
                names.append(module.resolve(dotted))
    return names


def _check_picklability(
    table: SymbolTable,
    closure: _PayloadClosure,
    reporter: Reporter,
) -> None:
    for qualname in sorted(closure):
        info = closure[qualname]
        module = table.modules[info.module]
        if info.nested:
            reporter.report(
                "RPR103",
                info.module,
                info.lineno,
                info.col,
                f"payload type '{info.name}' is defined inside a function; "
                "pickle resolves classes by module attribute, so a local "
                "class cannot cross a Pipe — move it to module level",
            )
        for field_info in info.fields:
            if field_info.annotation is not None:
                for resolved in _annotation_names(module, field_info.annotation):
                    hazard = _FIELD_HAZARDS.get(resolved)
                    if hazard is not None:
                        reporter.report(
                            "RPR103",
                            info.module,
                            field_info.lineno,
                            field_info.col,
                            f"payload field '{info.name}.{field_info.name}' "
                            f"holds {hazard}; it crosses a process "
                            "boundary inside a configured payload type",
                        )
            if isinstance(field_info.default, ast.Lambda):
                reporter.report(
                    "RPR103",
                    info.module,
                    field_info.lineno,
                    field_info.col,
                    f"payload field '{info.name}.{field_info.name}' defaults "
                    "to a lambda, which cannot pickle — use a module-level "
                    "function",
                )
            if isinstance(field_info.default, ast.Call):
                for keyword in field_info.default.keywords:
                    if keyword.arg == "default_factory" and isinstance(
                        keyword.value, ast.Lambda
                    ):
                        reporter.report(
                            "RPR103",
                            info.module,
                            field_info.lineno,
                            field_info.col,
                            f"payload field '{info.name}.{field_info.name}' "
                            "uses a lambda default_factory, which cannot "
                            "pickle — use a module-level function",
                        )


def _check_payload_callsites(
    table: SymbolTable, closure: _PayloadClosure, reporter: Reporter
) -> None:
    """Lambdas/genexps handed to payload constructors or ``.send(...)``."""
    for module in table.modules.values():
        for node in ast.walk(module.info.tree):
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(node.func)
            if target is None:
                continue
            is_send = target.endswith(".send")
            is_ctor = (
                not is_send and module.resolve(target) in closure
            )
            if not (is_send or is_ctor):
                continue
            what = (
                "a Pipe send" if is_send else f"the {target.split('.')[-1]} payload"
            )
            for argument in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(argument, ast.Lambda):
                    reporter.report(
                        "RPR103",
                        module.name,
                        argument.lineno,
                        argument.col_offset,
                        f"lambda passed into {what}; lambdas cannot pickle "
                        "across a process boundary",
                    )
                elif isinstance(argument, ast.GeneratorExp):
                    reporter.report(
                        "RPR103",
                        module.name,
                        argument.lineno,
                        argument.col_offset,
                        f"generator expression passed into {what}; "
                        "generators cannot pickle — materialize a list",
                    )


# -- RPR104: RNG escape ----------------------------------------------------


def _is_rng_producer(
    module: ModuleSymbols, call: ast.Call, config: CheckConfig
) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    if dotted.endswith(".derive"):
        return True
    resolved = module.resolve(dotted)
    tail = resolved.rsplit(".", maxsplit=1)[-1]
    if tail not in _RNG_PRODUCER_TAILS:
        return False
    if resolved == "numpy.random.default_rng" or tail == "default_rng":
        return True
    return any(
        resolved == f"{rng_module}.{tail}" for rng_module in config.rng_modules
    )


def _tainted_names(
    module: ModuleSymbols,
    body: Sequence[ast.stmt],
    config: CheckConfig,
) -> set[str]:
    """Names bound (anywhere in ``body``) to a freshly-minted generator."""
    tainted: set[str] = set()
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Assign):
                value = node.value
                is_producer = isinstance(value, ast.Call) and _is_rng_producer(
                    module, value, config
                )
                propagates = (
                    isinstance(value, ast.Name) and value.id in tainted
                )
                if is_producer or propagates:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
    return tainted


def _check_rng_escape(
    table: SymbolTable,
    closure: _PayloadClosure,
    config: CheckConfig,
    reporter: Reporter,
) -> None:

    def offending(
        module: ModuleSymbols, argument: ast.expr, tainted: set[str]
    ) -> bool:
        if isinstance(argument, ast.Call) and _is_rng_producer(
            module, argument, config
        ):
            return True
        return isinstance(argument, ast.Name) and argument.id in tainted

    for module in table.modules.values():
        for function in _all_functions(module):
            tainted = _tainted_names(module, function.node.body, config)
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                target = dotted_name(node.func)
                if target is None:
                    continue
                is_send = target.endswith(".send")
                is_ctor = not is_send and module.resolve(target) in closure
                if not (is_send or is_ctor):
                    continue
                for argument in [
                    *node.args,
                    *(kw.value for kw in node.keywords),
                ]:
                    if offending(module, argument, tainted):
                        where = (
                            "a Pipe send"
                            if is_send
                            else f"the {target.split('.')[-1]} payload"
                        )
                        reporter.report(
                            "RPR104",
                            module.name,
                            argument.lineno,
                            argument.col_offset,
                            f"live RNG stream escapes into {where}; "
                            "generators must not cross a process/digest "
                            "boundary — ship the seed or the RngFactory "
                            "and derive the stream on the far side",
                        )
        # self.<attr> = <generator> inside payload-boundary classes.
        for class_info in module.classes.values():
            if class_info.qualname not in closure:
                continue
            method_taint: Dict[str, set[str]] = {}
            for method_name, method in class_info.methods.items():
                method_taint[method_name] = _tainted_names(
                    module, method.node.body, config
                )
            for attr, value, method_name, lineno, col in class_info.self_assigns:
                tainted = method_taint.get(method_name, set())
                hit = (
                    isinstance(value, ast.Call)
                    and _is_rng_producer(module, value, config)
                ) or (isinstance(value, ast.Name) and value.id in tainted)
                if hit:
                    reporter.report(
                        "RPR104",
                        module.name,
                        lineno,
                        col,
                        f"payload type '{class_info.name}' stores a live RNG "
                        f"stream on self.{attr}; store the seed (or an "
                        "RngFactory) instead and derive streams after the "
                        "boundary",
                    )


def _all_functions(module: ModuleSymbols) -> List[FunctionInfo]:
    out = list(module.functions.values())
    for class_info in module.classes.values():
        out.extend(class_info.methods.values())
    return out


# -- entry point -----------------------------------------------------------


def check_project(
    project: ProjectGraph, config: CheckConfig, reporter: Reporter
) -> None:
    """Run the whole-program rules over ``project`` under ``config``."""
    table = SymbolTable(project)
    _check_layering(project, config, reporter)
    _check_cycles(project, reporter)
    _check_worker_state(project, table, config, reporter)
    closure = _payload_closure(table, config, reporter)
    _check_picklability(table, closure, reporter)
    _check_payload_callsites(table, closure, reporter)
    _check_rng_escape(table, closure, config, reporter)
