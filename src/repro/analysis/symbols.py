"""Project-wide symbol table for ``repro check``.

Built on the :class:`~repro.analysis.modgraph.ProjectGraph` module set,
this layer answers the questions the RPR1xx rules ask about *names*:

* what does ``np.random.Generator`` mean inside this module?  (alias
  resolution through the module's import statements);
* which classes does this class's field annotations reference, and are
  they project classes?  (payload-closure traversal for RPR103/RPR104);
* which module-level names are mutable containers, and which functions
  mutate them?  (shared-state hazards for RPR102).

Everything here is deliberately *syntactic* — no imports are executed,
so analysis of a module can never be perturbed by the side effects the
rules exist to catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.modgraph import ModuleInfo, ProjectGraph

__all__ = [
    "ClassInfo",
    "FieldInfo",
    "FunctionInfo",
    "ModuleSymbols",
    "SymbolTable",
    "dotted_name",
]

#: Container constructors whose result is mutable shared state when
#: bound at module level (RPR102).
_MUTABLE_CALLS = frozenset(
    {
        "list", "dict", "set", "bytearray", "defaultdict", "Counter",
        "OrderedDict", "deque",
    }
)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "extendleft",
    }
)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render an ``a.b.c`` attribute chain, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class FieldInfo:
    """One declared field of a class (body ``AnnAssign`` or dataclass)."""

    name: str
    annotation: Optional[ast.expr]
    default: Optional[ast.expr]
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """One function or method: its AST plus derived facts."""

    name: str
    qualname: str
    module: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Module-level names this function mutates, with the mutation line.
    global_mutations: List[Tuple[str, int]] = field(default_factory=list)
    #: Cross-module mutations: (module alias path, attr, line).
    attribute_mutations: List[Tuple[str, str, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition: fields, self-assignments, methods."""

    name: str
    qualname: str
    module: str
    lineno: int
    col: int
    nested: bool
    fields: List[FieldInfo] = field(default_factory=list)
    #: ``self.attr = value`` sites: (attr, value node, method, line, col).
    self_assigns: List[Tuple[str, ast.expr, str, int, int]] = field(
        default_factory=list
    )
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleSymbols:
    """Top-level symbols of one module."""

    name: str
    info: ModuleInfo
    #: local name -> fully-qualified dotted name (import resolution).
    aliases: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level names bound to mutable containers -> binding line/col.
    mutable_globals: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def resolve(self, dotted: str) -> str:
        """Fully-qualified form of ``dotted`` in this module's namespace."""
        head, _, rest = dotted.partition(".")
        alias = self.aliases.get(head)
        if alias is not None:
            return f"{alias}.{rest}" if rest else alias
        if (
            head in self.classes
            or head in self.functions
            or head in self.mutable_globals
        ):
            return f"{self.name}.{dotted}"
        return dotted


class _ModuleScanner(ast.NodeVisitor):
    """Single pass building one module's :class:`ModuleSymbols`."""

    def __init__(self, symbols: ModuleSymbols) -> None:
        self._symbols = symbols
        self._class_stack: List[ClassInfo] = []
        self._function_stack: List[FunctionInfo] = []

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", maxsplit=1)[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self._symbols.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            anchor = self._symbols.name.split(".")
            if not self._symbols.info.is_package:
                anchor = anchor[:-1]
            drop = node.level - 1
            if drop <= len(anchor):
                anchor = anchor[: len(anchor) - drop] if drop else anchor
                base = ".".join([*anchor, *filter(None, base.split("."))])
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self._symbols.aliases[local] = (
                f"{base}.{alias.name}" if base else alias.name
            )

    # -- classes -----------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        parent = self._class_stack[-1].qualname if self._class_stack else None
        scope = parent or self._symbols.name
        info = ClassInfo(
            name=node.name,
            qualname=f"{scope}.{node.name}",
            module=self._symbols.name,
            lineno=node.lineno,
            col=node.col_offset,
            nested=bool(self._function_stack),
        )
        if not self._function_stack and not self._class_stack:
            self._symbols.classes[node.name] = info
        elif self._class_stack:
            # Nested classes keep a qualname entry for closure lookups.
            self._symbols.classes.setdefault(node.name, info)
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                info.fields.append(
                    FieldInfo(
                        name=statement.target.id,
                        annotation=statement.annotation,
                        default=statement.value,
                        lineno=statement.lineno,
                        col=statement.col_offset,
                    )
                )
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- functions ---------------------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._class_stack:
            owner = self._class_stack[-1]
            qualname = f"{owner.qualname}.{node.name}"
        else:
            owner = None
            qualname = f"{self._symbols.name}.{node.name}"
        info = FunctionInfo(
            name=node.name,
            qualname=qualname,
            module=self._symbols.name,
            lineno=node.lineno,
            node=node,
        )
        if owner is not None and not self._function_stack:
            owner.methods[node.name] = info
        elif owner is None and not self._function_stack:
            self._symbols.functions[node.name] = info
        self._scan_body(info, node, owner)
        self._function_stack.append(info)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _scan_body(
        self,
        info: FunctionInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: Optional[ClassInfo],
    ) -> None:
        declared_global: set[str] = set()
        local_names: set[str] = {
            arg.arg
            for arg in (
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
                *((node.args.vararg,) if node.args.vararg else ()),
                *((node.args.kwarg,) if node.args.kwarg else ()),
            )
        }
        for statement in ast.walk(node):
            if isinstance(statement, ast.Global):
                declared_global.update(statement.names)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        if target.id in declared_global:
                            info.global_mutations.append(
                                (target.id, statement.lineno)
                            )
                        else:
                            local_names.add(target.id)
                    elif isinstance(target, ast.Subscript):
                        self._record_subscript_mutation(
                            info, target, local_names, declared_global
                        )
                if owner is not None:
                    for target in statement.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            owner.self_assigns.append(
                                (
                                    target.attr,
                                    statement.value,
                                    node.name,
                                    statement.lineno,
                                    statement.col_offset,
                                )
                            )
            elif isinstance(statement, ast.AnnAssign):
                target = statement.target
                if isinstance(target, ast.Name):
                    local_names.add(target.id)
                elif (
                    owner is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and statement.value is not None
                ):
                    owner.self_assigns.append(
                        (
                            target.attr,
                            statement.value,
                            node.name,
                            statement.lineno,
                            statement.col_offset,
                        )
                    )
                    if node.name == "__init__":
                        owner.fields.append(
                            FieldInfo(
                                name=target.attr,
                                annotation=statement.annotation,
                                default=None,
                                lineno=statement.lineno,
                                col=statement.col_offset,
                            )
                        )
            elif isinstance(statement, ast.AugAssign):
                if isinstance(statement.target, ast.Subscript):
                    self._record_subscript_mutation(
                        info, statement.target, local_names, declared_global
                    )
        # Second pass for mutator-method calls: local bindings are now
        # fully known, so ``x = []; x.append(...)`` inside the function
        # does not masquerade as a module-global mutation.
        for statement in ast.walk(node):
            if isinstance(statement, ast.Call):
                self._record_mutator(info, statement, local_names, declared_global)

    def _record_subscript_mutation(
        self,
        info: FunctionInfo,
        target: ast.Subscript,
        local_names: set[str],
        declared_global: set[str],
    ) -> None:
        base = target.value
        if isinstance(base, ast.Name):
            if base.id in local_names and base.id not in declared_global:
                return
            info.global_mutations.append((base.id, target.lineno))
        else:
            dotted = dotted_name(base)
            if dotted and "." in dotted:
                prefix, _, attr = dotted.rpartition(".")
                info.attribute_mutations.append((prefix, attr, target.lineno))

    def _record_mutator(
        self,
        info: FunctionInfo,
        call: ast.Call,
        local_names: set[str],
        declared_global: set[str],
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATOR_METHODS:
            return
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id in local_names and receiver.id not in declared_global:
                return
            info.global_mutations.append((receiver.id, call.lineno))
        else:
            dotted = dotted_name(receiver)
            if dotted and "." in dotted:
                prefix, _, attr = dotted.rpartition(".")
                info.attribute_mutations.append((prefix, attr, call.lineno))

    # -- module-level assignments ------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack and not self._function_stack:
            for target in node.targets:
                if isinstance(target, ast.Name) and self._is_mutable(node.value):
                    self._symbols.mutable_globals[target.id] = (
                        node.lineno,
                        node.col_offset,
                    )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            not self._class_stack
            and not self._function_stack
            and isinstance(node.target, ast.Name)
            and node.value is not None
            and self._is_mutable(node.value)
        ):
            self._symbols.mutable_globals[node.target.id] = (
                node.lineno,
                node.col_offset,
            )
        self.generic_visit(node)

    @staticmethod
    def _is_mutable(value: ast.expr) -> bool:
        if isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                return dotted.rsplit(".", maxsplit=1)[-1] in _MUTABLE_CALLS
        return False


class SymbolTable:
    """Symbols of every module in a project, with cross-module lookups."""

    def __init__(self, project: ProjectGraph) -> None:
        self.project = project
        self.modules: Dict[str, ModuleSymbols] = {}
        for name, info in project.modules.items():
            symbols = ModuleSymbols(name=name, info=info)
            _ModuleScanner(symbols).visit(info.tree)
            self.modules[name] = symbols

    def find_class(self, qualified: str) -> Optional[ClassInfo]:
        """Class by fully-qualified name, following package re-exports.

        ``repro.protocols.CodedBroadcastPlan`` resolves through the
        package's alias table to the defining class in
        ``repro.emulator.plan`` — one hop of re-export following, which
        covers the ``from x import y`` republication idiom.
        """
        module_name, _, class_name = qualified.rpartition(".")
        module = self.modules.get(module_name)
        if module is None:
            return None
        found = module.classes.get(class_name)
        if found is not None:
            return found
        alias = module.aliases.get(class_name)
        if alias is not None and alias != qualified:
            return self.find_class(alias)
        return None

    def functions(self) -> Iterator[FunctionInfo]:
        """Every top-level function and method in the project."""
        for module in self.modules.values():
            yield from module.functions.values()
            for class_info in module.classes.values():
                yield from class_info.methods.values()
