"""The per-file rule family of ``repro check`` (RPR001-RPR005).

The repo's headline guarantees — bit-identical traces under a fixed
seed, RNG-stream-exact batched kernels, conservation/MAC invariants —
are runtime properties; these rules reject, *statically*, the code
patterns that most often break them:

* **RPR001 no-unseeded-rng** — every random generator must flow through
  the named streams of :mod:`repro.util.rng`.  A stray
  ``np.random.default_rng()`` (or legacy ``np.random.*`` / stdlib
  ``random.*`` call) creates a stream outside the experiment seed's
  control and silently forks the trace.
* **RPR002 no-wallclock** — ``time.time`` / ``perf_counter`` /
  ``datetime.now`` read the host clock; emulated time must come from
  the slot counter.  Allowed only under ``obs/`` and ``benchmarks/``,
  where wall time is the *measurement*.
* **RPR003 no-set-iteration** — iterating a ``set`` yields a
  hash-randomized order across processes; any per-element RNG draw or
  accumulation in that order diverges run-to-run.  Iterate a sorted
  view instead.
* **RPR004 no-float-equality** — ``==`` / ``!=`` against float literals
  in convergence/allocation checks is a latent tolerance bug; use an
  explicit tolerance (or pragma the exact-sentinel compares).
* **RPR005 public-api-annotations** — exported functions must be fully
  annotated so the mypy strict gate actually covers the public surface.

Each rule judges one module at a time, so the family is one visitor
walked over every tree of the project model.  The :mod:`repro.util.rng`
module itself is the designated rng root and is exempt from RPR001
wholesale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.analysis.findings import Reporter
from repro.analysis.modgraph import ModuleInfo, ProjectGraph
from repro.analysis.symbols import dotted_name

__all__ = ["check_modules"]

#: Path suffixes of modules allowed to mint generators (RPR001).
_RNG_ROOT_MODULES = ("util/rng.py",)
#: Path components under which wall-clock reads are allowed (RPR002).
#: ``exec`` schedules real processes (timeouts, retry clocks), so its
#: wall-clock use is legitimate — emulated time never flows through it.
_WALLCLOCK_ALLOWED = ("obs", "benchmarks", "exec")

#: Call targets that mint or reseed a random stream (RPR001).
_RNG_SUFFIXES = ("random.default_rng", "random.Generator", "random.RandomState")
_RNG_BARE = frozenset({"default_rng", "RandomState"})
_NUMPY_LEGACY = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "standard_normal", "uniform",
        "normal", "exponential", "poisson", "binomial",
    }
)
_STDLIB_RANDOM = frozenset(
    {
        "random", "seed", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "betavariate", "Random",
    }
)

#: Wall-clock call targets (RPR002).
_WALLCLOCK_DOTTED = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
    }
)
_WALLCLOCK_SUFFIXES = (
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)
_WALLCLOCK_BARE = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
)

#: Names that denote set types in annotations (RPR003).
_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
#: Methods whose result is a set when called on one (RPR003).
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _annotation_is_set(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    if name is None:
        return False
    return name.rsplit(".", maxsplit=1)[-1] in _SET_TYPE_NAMES


@dataclass
class _Scope:
    """One function (or module) scope's set-typed name bindings."""

    set_names: set[str] = field(default_factory=set)


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor evaluating every selected rule."""

    def __init__(self, module: ModuleInfo, reporter: Reporter) -> None:
        self._module = module.name
        self._reporter = reporter
        self._is_rng_root = any(
            module.path.endswith(suffix) for suffix in _RNG_ROOT_MODULES
        )
        parts = PurePosixPath(module.path).parts
        self._wallclock_ok = any(
            component in parts for component in _WALLCLOCK_ALLOWED
        )
        #: module scope at the bottom; one scope per enclosing function
        self._scopes: list[_Scope] = [_Scope()]
        #: (class-nesting-depth, function-nesting-depth) for RPR005
        self._class_depth = 0
        self._func_depth = 0

    def _report(self, rule: str, node: ast.expr | ast.stmt, message: str) -> None:
        self._reporter.report(
            rule,
            self._module,
            node.lineno,
            node.col_offset,
            message,
            end_lineno=node.end_lineno,
        )

    # -- RPR001 / RPR002: call-site rules ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            self._check_rng_call(node, dotted)
            self._check_wallclock_call(node, dotted)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, dotted: str) -> None:
        if self._is_rng_root:
            return
        tail = dotted.rsplit(".", maxsplit=1)[-1]
        hit = (
            any(dotted.endswith(suffix) for suffix in _RNG_SUFFIXES)
            or dotted in _RNG_BARE
            or (
                tail in _NUMPY_LEGACY
                and (".random." in dotted or dotted.startswith("random."))
            )
            or (dotted.startswith("random.") and tail in _STDLIB_RANDOM)
            or dotted == "Random"
        )
        if hit:
            self._report(
                "RPR001",
                node,
                f"generator minted outside util/rng ({dotted}); derive a "
                "named stream from RngFactory or mark an intentional root "
                "with '# repro: rng-root'",
            )

    def _check_wallclock_call(self, node: ast.Call, dotted: str) -> None:
        if self._wallclock_ok:
            return
        hit = (
            dotted in _WALLCLOCK_DOTTED
            or any(dotted.endswith(suffix) for suffix in _WALLCLOCK_SUFFIXES)
            or dotted in _WALLCLOCK_BARE
        )
        if hit:
            allowed = "/".join(_WALLCLOCK_ALLOWED)
            self._report(
                "RPR002",
                node,
                f"wall-clock read ({dotted}) outside {allowed}; "
                "emulated time must come from the slot counter",
            )

    # -- RPR003: set iteration --------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            return any(
                node.id in scope.set_names for scope in reversed(self._scopes)
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            # a & b, a | b, ... — set-typed only if an operand provably is.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._report(
                "RPR003",
                iter_node,
                "iterating a set is hash-order nondeterministic across "
                "processes; iterate sorted(...) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Assign(self, node: ast.Assign) -> None:
        scope = self._scopes[-1]
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_set_expr(node.value):
                    scope.set_names.add(target.id)
                else:
                    scope.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            scope = self._scopes[-1]
            if _annotation_is_set(node.annotation):
                scope.set_names.add(node.target.id)
            else:
                scope.set_names.discard(node.target.id)
        self.generic_visit(node)

    # -- RPR004: float equality -------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_float_literal(left) or _is_float_literal(right):
                self._report(
                    "RPR004",
                    node,
                    "exact ==/!= against a float literal; use an explicit "
                    "tolerance (math.isclose / abs(a-b) < eps) or pragma an "
                    "exact-sentinel compare",
                )
                break
        self.generic_visit(node)

    # -- RPR005: public API annotations + scope bookkeeping ----------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_annotations(node)
        self._func_depth += 1
        scope = _Scope()
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ):
            if _annotation_is_set(arg.annotation):
                scope.set_names.add(arg.arg)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()
        self._func_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_annotations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._func_depth > 0:
            return  # nested helper, not part of the public surface
        is_method = self._class_depth > 0
        public = not node.name.startswith("_") or (
            is_method and node.name == "__init__"
        )
        if not public:
            return
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            arg.arg
            for arg in (*positional, *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None and arg.annotation is None
        ]
        if missing:
            self._report(
                "RPR005",
                node,
                f"public function '{node.name}' has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            self._report(
                "RPR005",
                node,
                f"public function '{node.name}' is missing a return "
                "annotation",
            )


def check_modules(project: ProjectGraph, reporter: Reporter) -> None:
    """Run the per-file rules over every module of ``project``."""
    for module in project.modules.values():
        _RuleVisitor(module, reporter).visit(module.tree)
