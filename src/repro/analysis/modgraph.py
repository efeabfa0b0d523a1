"""The one project model ``repro check`` analyzes.

Parses every module of a project package exactly once (stdlib ``ast``
only); the per-file rule family walks each :class:`ModuleInfo`'s tree,
and the whole-program family reasons over the import graph built from
the same trees.  Each import statement becomes one :class:`ImportEdge`
classified by *when* it executes:

* ``toplevel`` — module scope; runs at import time, the strongest
  coupling (and the only kind that can deadlock a circular import);
* ``lazy`` — inside a function body; deferred, but still a *runtime*
  dependency: the import executes on the first call, so it still forms
  a genuine cycle for layering purposes;
* ``typing`` — inside an ``if TYPE_CHECKING:`` block; never executes at
  runtime, so it is exempt from both cycle detection and layering
  (this is exactly the sanctioned escape hatch for annotation-only
  references to a higher layer).

Modules aggregate into *units* — the first dotted component under the
package (``repro.emulator.shard`` → ``emulator``) — which is the level
the layering contract in ``pyproject.toml`` speaks about.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectGraph",
    "build_project",
    "module_name_for",
    "parse_module",
]

#: Edge classification; see the module docstring.
RUNTIME_KINDS: Tuple[str, ...] = ("toplevel", "lazy")


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a project module when possible.

    Attributes:
        importer: module containing the statement.
        target: the project module imported (resolution picks the
            deepest project module that is a prefix of the imported
            name, so ``from repro.coding import gf256`` targets
            ``repro.coding.gf256`` while ``from repro.coding import
            FieldType`` targets ``repro.coding``).
        kind: ``"toplevel"`` | ``"lazy"`` | ``"typing"``.
        lineno: 1-based line of the statement (pragma anchor).
        col: 0-based column of the statement.
    """

    importer: str
    target: str
    kind: str
    lineno: int
    col: int


@dataclass
class ModuleInfo:
    """One parsed project module."""

    name: str
    path: str
    source: str
    tree: ast.Module
    is_package: bool

    @property
    def unit(self) -> str:
        """First dotted component below the package root, or ``""``.

        ``repro.emulator.shard`` → ``emulator``; top-level modules like
        ``repro.cli`` map to themselves (``cli``); the package root
        ``repro`` has no unit.
        """
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""


def parse_module(
    name: str, path: str, source: str, *, is_package: bool = False
) -> ModuleInfo:
    """Parse one module's source — the only ``ast.parse`` of a module.

    ``path`` is the repo-relative path findings (and a ``SyntaxError``)
    carry.
    """
    return ModuleInfo(
        name=name,
        path=path,
        source=source,
        tree=ast.parse(source, filename=path),
        is_package=is_package,
    )


def module_name_for(path: Path, search_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``search_root``."""
    relative = path.resolve().relative_to(search_root.resolve())
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


class _ImportCollector(ast.NodeVisitor):
    """Collect every import with its execution classification."""

    def __init__(self, module: ModuleInfo) -> None:
        self._module = module
        self._function_depth = 0
        self._typing_depth = 0
        #: (imported dotted name, from-aliases, kind, lineno, col)
        self.raw: List[Tuple[str, Tuple[str, ...], str, int, int]] = []

    def _kind(self) -> str:
        if self._typing_depth > 0:
            return "typing"
        if self._function_depth > 0:
            return "lazy"
        return "toplevel"

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            self._typing_depth += 1
            for statement in node.body:
                self.visit(statement)
            self._typing_depth -= 1
            for statement in node.orelse:
                self.visit(statement)
            return
        self.generic_visit(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.raw.append(
                (alias.name, (), self._kind(), node.lineno, node.col_offset)
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_relative(node)
        if base is None:
            return
        names = tuple(alias.name for alias in node.names)
        self.raw.append((base, names, self._kind(), node.lineno, node.col_offset))

    def _resolve_relative(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        parts = self._module.name.split(".")
        if not self._module.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        anchor = parts[: len(parts) - drop] if drop else parts
        if node.module:
            anchor = [*anchor, *node.module.split(".")]
        return ".".join(anchor) if anchor else None


@dataclass
class ProjectGraph:
    """The parsed project: modules plus the classified import graph."""

    package: str
    modules: Dict[str, ModuleInfo]
    edges: List[ImportEdge] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    def _resolve_target(self, dotted: str) -> str | None:
        """Deepest project module whose name prefixes ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def collect_edges(self) -> None:
        """(Re)build :attr:`edges` from the module ASTs."""
        self.edges = []
        for module in self.modules.values():
            collector = _ImportCollector(module)
            collector.visit(module.tree)
            for dotted, names, kind, lineno, col in collector.raw:
                if names:
                    resolved_any = False
                    for name in names:
                        target = self._resolve_target(f"{dotted}.{name}")
                        if target is not None:
                            resolved_any = True
                            self._add_edge(module, target, kind, lineno, col)
                    if not resolved_any:
                        target = self._resolve_target(dotted)
                        if target is not None:
                            self._add_edge(module, target, kind, lineno, col)
                else:
                    target = self._resolve_target(dotted)
                    if target is not None:
                        self._add_edge(module, target, kind, lineno, col)

    def _add_edge(
        self, module: ModuleInfo, target: str, kind: str, lineno: int, col: int
    ) -> None:
        if target == module.name:
            return
        edge = ImportEdge(
            importer=module.name,
            target=target,
            kind=kind,
            lineno=lineno,
            col=col,
        )
        # One `from x import a, b` can resolve several names to the same
        # module; keep one edge per statement/target so rules report once.
        if self.edges and self.edges[-1] == edge:
            return
        self.edges.append(edge)

    # -- queries -----------------------------------------------------------

    def runtime_edges(self) -> Iterator[ImportEdge]:
        """Edges that execute at runtime (toplevel + lazy)."""
        return (e for e in self.edges if e.kind in RUNTIME_KINDS)

    def adjacency(
        self, kinds: Sequence[str] = RUNTIME_KINDS
    ) -> Dict[str, List[str]]:
        """Module adjacency restricted to ``kinds`` (sorted, deduped)."""
        table: Dict[str, List[str]] = {name: [] for name in self.modules}
        seen: set[Tuple[str, str]] = set()
        for edge in self.edges:
            if edge.kind not in kinds:
                continue
            key = (edge.importer, edge.target)
            if key not in seen:
                seen.add(key)
                table[edge.importer].append(edge.target)
        for targets in table.values():
            targets.sort()
        return table

    def import_cycles(
        self, kinds: Sequence[str] = RUNTIME_KINDS
    ) -> List[Tuple[str, ...]]:
        """Module-level cycles: every SCC with more than one member.

        Tarjan's algorithm, iterative (the emulator package alone is
        deep enough to make recursion depth a real concern), restricted
        to the given edge kinds.  Each cycle is returned as the sorted
        tuple of its member modules; cycles are sorted for stable
        output.
        """
        adjacency = self.adjacency(kinds)
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: set[str] = set()
        stack: List[str] = []
        counter = 0
        cycles: List[Tuple[str, ...]] = []

        for root in sorted(adjacency):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                children = adjacency[node]
                advanced = False
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in index:
                        work.append((node, child_index))
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        cycles.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sorted(cycles)

    def unit_edges(
        self, kinds: Sequence[str] = RUNTIME_KINDS
    ) -> Dict[Tuple[str, str], List[ImportEdge]]:
        """Cross-unit edges grouped by (importer unit, target unit)."""
        table: Dict[Tuple[str, str], List[ImportEdge]] = {}
        for edge in self.edges:
            if edge.kind not in kinds:
                continue
            importer = self.modules[edge.importer].unit
            target = self.modules[edge.target].unit
            if not importer or not target or importer == target:
                continue
            table.setdefault((importer, target), []).append(edge)
        for group in table.values():
            group.sort(key=lambda e: (e.importer, e.lineno))
        return table

    def reachable_from(
        self, roots: Iterable[str], kinds: Sequence[str] = RUNTIME_KINDS
    ) -> set[str]:
        """Modules transitively imported from ``roots`` (roots included)."""
        adjacency = self.adjacency(kinds)
        seen: set[str] = set()
        frontier = [root for root in roots if root in adjacency]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency.get(node, ()))
        return seen


def build_project(
    search_root: Path, package: str, *, rel_root: Path | None = None
) -> ProjectGraph:
    """Parse ``<search_root>/<package>`` into a :class:`ProjectGraph`.

    ``rel_root`` anchors the repo-relative paths used in findings
    (default: the search root's parent, so ``src/repro/...`` paths come
    out when scanning ``src``).

    Raises ``SyntaxError`` annotated with the offending file if any
    module fails to parse — an unparseable tree cannot be analyzed and
    must fail the run loudly rather than silently skipping the file.
    """
    package_dir = search_root / package
    if not package_dir.is_dir():
        raise FileNotFoundError(f"package directory not found: {package_dir}")
    anchor = rel_root if rel_root is not None else search_root.parent
    modules: Dict[str, ModuleInfo] = {}
    for file_path in sorted(package_dir.rglob("*.py")):
        if "__pycache__" in file_path.parts:
            continue
        name = module_name_for(file_path, search_root)
        try:
            rel = file_path.resolve().relative_to(anchor.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        modules[name] = parse_module(
            name,
            rel,
            file_path.read_text(encoding="utf-8"),
            is_package=file_path.name == "__init__.py",
        )
    graph = ProjectGraph(package=package, modules=modules)
    graph.collect_edges()
    return graph
