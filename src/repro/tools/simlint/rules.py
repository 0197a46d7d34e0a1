"""The simlint rule set (SIM001..SIM013).

Each rule encodes one determinism / unit-safety invariant the simulator
depends on for bit-reproducible runs (see docs/ARCHITECTURE.md,
"Determinism invariants & simlint").  Most rules work on a single
module's AST; SIM002 additionally has a *run-scope* extension
(:class:`DuplicateStreamNameRule`) that correlates RNG stream-name
registrations across every module of the run.  With ``--flow``, the
whole-program pass (:mod:`repro.tools.simlint.flow`) runs three
interprocedural rules on top: SIM003 across function/module boundaries
(:class:`CrossModuleFloatTimeRule`), SIM008 snapshot-completeness
(:class:`SnapshotCompletenessRule`), and SIM009 worker-shared-state
divergence (:class:`WorkerSharedStateRule`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.tools.simlint.registry import (
    Finding,
    FlowRule,
    LintConfig,
    Rule,
    RunScopeRule,
    register,
    register_flow,
    register_run_scope,
)
from repro.tools.simlint.walker import ModuleInfo, canonical_name

__all__ = [
    "WallClockRule",
    "UnmanagedRandomnessRule",
    "DuplicateStreamNameRule",
    "FloatTimeRule",
    "SetIterationRule",
    "ModuleStateRule",
    "UnmanagedParallelismRule",
    "NonAtomicWriteRule",
    "BlameVocabularyRule",
    "OutageWindowRule",
    "AdHocEventHeapRule",
    "UnboundedRetryRule",
    "CrossModuleFloatTimeRule",
    "SnapshotCompletenessRule",
    "WorkerSharedStateRule",
    "iter_stream_registrations",
]

#: Canonical dotted names that read the host's wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Callables that coerce their argument back to an exact integer,
#: terminating SIM003's float taint.
_INT_COERCIONS = frozenset({"int", "round", "len", "math.floor", "math.ceil", "math.trunc"})

_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at"})


def _call_name(node: ast.Call, imports: dict[str, str]) -> Optional[str]:
    return canonical_name(node.func, imports)


def _is_schedule_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _SCHEDULE_METHODS
    if isinstance(func, ast.Name):
        return func.id in _SCHEDULE_METHODS
    return False


def _module_schedules(module: ModuleInfo) -> bool:
    """True if the module contains any ``schedule``/``schedule_at`` call."""
    assert module.tree is not None
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and _is_schedule_call(node):
            return True
    return False


# ----------------------------------------------------------------------
# SIM001 — no wall-clock reads in simulated code
# ----------------------------------------------------------------------
@register
class WallClockRule(Rule):
    code = "SIM001"
    name = "wall-clock"
    rationale = (
        "Simulated time is the Simulator's integer-picosecond clock; reading "
        "the host clock (time.time, perf_counter, datetime.now) makes results "
        "depend on host speed and load, destroying reproducibility."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, module.imports)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {name}() in simulator code; use the "
                    "Simulator clock (sim.now) instead",
                )


# ----------------------------------------------------------------------
# SIM002 — all randomness flows through RngStreams
# ----------------------------------------------------------------------
@register
class UnmanagedRandomnessRule(Rule):
    code = "SIM002"
    name = "unmanaged-randomness"
    rationale = (
        "Every random draw must come from a named RngStreams child stream so "
        "adding a component never perturbs the draws of existing components; "
        "raw np.random.* or stdlib random.* calls break stream isolation."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_rng_sanctioned(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, module.imports)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                yield self.finding(
                    module,
                    node,
                    f"raw {name}() outside repro/sim/rng.py; draw from a named "
                    "RngStreams child stream instead",
                )
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib {name}() is unmanaged randomness; draw from a "
                    "named RngStreams child stream instead",
                )


# ----------------------------------------------------------------------
# SIM002 (run scope) — RNG stream names unique across components
# ----------------------------------------------------------------------

#: RngStreams methods that register/fetch a named child stream.
_STREAM_METHODS = frozenset({"get", "fresh"})


def _is_rng_registry(node: ast.expr) -> bool:
    """Heuristic: does *node* look like an :class:`RngStreams` registry?

    Receivers are matched by name (``rng``-ish identifiers or attributes,
    or a direct ``RngStreams(...)`` construction).  A ``spawn(...)`` call
    receiver is deliberately *not* matched: spawned views namespace their
    children under the spawn prefix, so the same literal under two
    different prefixes is two different streams.
    """
    if isinstance(node, ast.Name):
        return "rng" in node.id.lower() or node.id == "streams"
    if isinstance(node, ast.Attribute):
        return "rng" in node.attr.lower() or node.attr == "streams"
    if isinstance(node, ast.Call):
        func = node.func
        ctor = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return ctor == "RngStreams"
    return False


def iter_stream_registrations(module: ModuleInfo) -> Iterator[tuple[str, ast.Call]]:
    """``(name, call_node)`` for each literal stream registration.

    Only string-literal first arguments count: dynamically composed
    names (f-strings, concatenation) are usually parameterized by an
    instance prefix and cannot collide statically.
    """
    if module.tree is None:
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _STREAM_METHODS:
            continue
        if not _is_rng_registry(func.value):
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value, node


@register_run_scope
class DuplicateStreamNameRule(RunScopeRule):
    code = "SIM002"
    name = "duplicate-stream-name"
    rationale = (
        "A named RNG stream is an isolation domain: two components that "
        "get() the same literal name share one generator, so their draws "
        "interleave and adding traffic to one silently perturbs the other.  "
        "The same stream name registered from two different modules is "
        "almost always an accidental collision; re-fetching a name within "
        "one module is normal reuse and is not flagged."
    )

    def check_run(self, modules: Sequence[ModuleInfo], config: LintConfig) -> Iterator[Finding]:
        del config  # the check has no path-dependent carve-outs
        sites: dict[str, list[tuple[ModuleInfo, ast.Call]]] = {}
        for module in modules:
            for stream, node in iter_stream_registrations(module):
                sites.setdefault(stream, []).append((module, node))
        for stream in sorted(sites):
            owners = sites[stream]
            rels = sorted({module.rel for module, _ in owners})
            if len(rels) < 2:
                continue
            for module, node in owners:
                others = ", ".join(r for r in rels if r != module.rel)
                yield self.finding(
                    module,
                    node,
                    f"RNG stream name {stream!r} is also registered in "
                    f"{others}; stream names must be unique per component "
                    "(prefix with the component name, or derive a namespaced "
                    "view with spawn())",
                )


# ----------------------------------------------------------------------
# SIM003 — integer-time discipline on delays
# ----------------------------------------------------------------------
@register
class FloatTimeRule(Rule):
    code = "SIM003"
    name = "float-time"
    rationale = (
        "Simulated time is exact integer picoseconds; a float flowing into a "
        "schedule() delay or a Time/Duration parameter reintroduces rounding "
        "drift and platform-dependent event ordering."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        annotated = _collect_time_annotated(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_schedule(module, node)
            yield from self._check_annotated(module, node, annotated)

    def _check_schedule(self, module: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        if not _is_schedule_call(node):
            return
        args: list[tuple[str, ast.expr]] = []
        if node.args:
            args.append(("delay/time argument", node.args[0]))
        for kw in node.keywords:
            if kw.arg in ("delay", "time"):
                args.append((f"{kw.arg}= argument", kw.value))
        for what, expr in args:
            reason = _float_reason(expr, module.imports)
            if reason:
                yield self.finding(
                    module,
                    expr,
                    f"{reason} flows into the {what} of a schedule call; "
                    "delays must be exact integer picoseconds "
                    "(use // or the repro.units helpers)",
                )

    def _check_annotated(
        self,
        module: ModuleInfo,
        node: ast.Call,
        annotated: dict[str, dict[str, object]],
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            fname, bound = func.id, False
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            # self.f(...) / obj.f(...): assume a bound method (skip `self`).
            fname, bound = func.attr, True
        else:
            return
        info = annotated.get(fname)
        if info is None:
            return
        params: list[str] = info["params"]  # type: ignore[assignment]
        time_params: dict[str, str] = info["time_params"]  # type: ignore[assignment]
        offset = 1 if (bound and info["is_method"]) else 0
        for i, arg in enumerate(node.args):
            idx = i + offset
            if idx >= len(params):
                break
            pname = params[idx]
            if pname in time_params:
                reason = _float_reason(arg, module.imports)
                if reason:
                    yield self.finding(
                        module,
                        arg,
                        f"{reason} passed for {time_params[pname]}-annotated "
                        f"parameter {pname!r} of {fname}()",
                    )
        for kw in node.keywords:
            if kw.arg in time_params:
                reason = _float_reason(kw.value, module.imports)
                if reason:
                    yield self.finding(
                        module,
                        kw.value,
                        f"{reason} passed for {time_params[kw.arg]}-annotated "
                        f"parameter {kw.arg!r} of {fname}()",
                    )


def _annotation_kind(node: Optional[ast.expr]) -> Optional[str]:
    """'Time' / 'Duration' if the annotation names one of them."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and node.value in ("Time", "Duration"):
        return str(node.value)
    if isinstance(node, ast.Name) and node.id in ("Time", "Duration"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in ("Time", "Duration"):
        return node.attr
    return None


def _collect_time_annotated(tree: ast.Module) -> dict[str, dict[str, object]]:
    """Functions (by bare name) with Time/Duration-annotated parameters."""
    table: dict[str, dict[str, object]] = {}

    class Collector(ast.NodeVisitor):
        def __init__(self) -> None:
            self.class_depth = 0

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_depth += 1
            self.generic_visit(node)
            self.class_depth -= 1

        def _visit_func(self, node) -> None:
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            time_params = {}
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                kind = _annotation_kind(a.annotation)
                if kind:
                    time_params[a.arg] = kind
            if time_params:
                is_method = self.class_depth > 0 and params[:1] in (["self"], ["cls"])
                table[node.name] = {
                    "params": params,
                    "time_params": time_params,
                    "is_method": is_method,
                }
            self.generic_visit(node)

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

    Collector().visit(tree)
    return table


def _float_reason(node: ast.expr, imports: dict[str, str]) -> Optional[str]:
    """Why *node* definitely produces a float, or None if it may not."""
    if isinstance(node, ast.Constant):
        return "float literal" if isinstance(node.value, float) else None
    if isinstance(node, ast.UnaryOp):
        return _float_reason(node.operand, imports)
    if isinstance(node, ast.IfExp):
        return _float_reason(node.body, imports) or _float_reason(node.orelse, imports)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return "true division (/)"
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.Pow)):
            return _float_reason(node.left, imports) or _float_reason(node.right, imports)
        return None
    if isinstance(node, ast.Call):
        name = canonical_name(node.func, imports)
        if name == "float":
            return "float(...) conversion"
        if name in WALL_CLOCK_CALLS:
            return f"wall-clock {name}()"
        # int()/round()/floor()... launder the taint back to an int.
        return None
    return None


# ----------------------------------------------------------------------
# SIM004 — no set iteration in scheduling modules
# ----------------------------------------------------------------------
@register
class SetIterationRule(Rule):
    code = "SIM004"
    name = "set-iteration"
    rationale = (
        "Set iteration order depends on insertion history and (for str keys) "
        "the per-process hash seed; iterating a set while scheduling events "
        "makes the event order differ between runs.  Sort first, or keep an "
        "ordered container."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if not _module_schedules(module):
            return
        yield from _SetIterationVisitor(self, module).run()


class _SetIterationVisitor(ast.NodeVisitor):
    """Flags ``for x in <set>`` and comprehensions over sets.

    Tracks, per function scope, local names bound to set-producing
    expressions, plus ``self.<attr> = <set>`` assignments anywhere in
    the enclosing class.  ``dict.fromkeys(<set>)`` results inherit the
    set's (nondeterministic) order and are tracked too.  Iterating
    ``sorted(s)`` is fine: the flagged expression is the iterable
    itself, and ``sorted(...)`` is not a set.
    """

    def __init__(self, rule: Rule, module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self.local_sets: list[set[str]] = []
        self.class_set_attrs: list[set[str]] = []

    def run(self) -> list[Finding]:
        assert self.module.tree is not None
        self.visit(self.module.tree)
        return self.findings

    # -- scope management ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_set_attrs.append(_collect_set_attrs(node))
        self.generic_visit(node)
        self.class_set_attrs.pop()

    def _visit_func(self, node) -> None:
        self.local_sets.append(set())
        self.generic_visit(node)
        self.local_sets.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- assignment tracking ---------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self.local_sets and self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_sets[-1].add(target.id)
        self.generic_visit(node)

    # -- iteration points ------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_iter(self, expr: ast.expr) -> None:
        if self._is_set_expr(expr):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    expr,
                    "iteration over a set in a module that schedules events; "
                    "the order is nondeterministic across runs — iterate "
                    "sorted(...) or an ordered container",
                )
            )

    # -- set-expression classification -----------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self.local_sets)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return any(node.attr in attrs for attrs in self.class_set_attrs)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Call):
            name = canonical_name(node.func, self.module.imports)
            if name in ("set", "frozenset"):
                return True
            if name == "dict.fromkeys" and node.args:
                return self._is_set_expr(node.args[0])
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(node.func.value)
        return False


def _collect_set_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<attr>`` assigned a set expression in any method."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        if not is_set:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


# ----------------------------------------------------------------------
# SIM005 — no module-level mutable state in core packages
# ----------------------------------------------------------------------
@register
class ModuleStateRule(Rule):
    code = "SIM005"
    name = "module-state"
    rationale = (
        "Module-level mutable containers survive across simulations in the "
        "same process, so one run's state leaks into the next.  Constants "
        "are fine (ALL_CAPS names bound to non-empty literals); registries "
        "and caches must live on per-run objects."
    )

    #: Constructors that produce a mutable container.
    _MUTABLE_CALLS = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.deque",
            "collections.Counter",
            "collections.OrderedDict",
        }
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if not config.in_stateful_package(module.rel):
            return
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            kind = self._mutable_kind(value, module.imports)
            if kind is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends
                if _is_constant_style(name) and not _is_empty_container(value):
                    continue  # ALL_CAPS non-empty literal: a constant table
                yield self.finding(
                    module,
                    node,
                    f"module-level mutable {kind} {name!r} breaks run "
                    "isolation; move it onto a per-run object (or make it an "
                    "ALL_CAPS constant literal)",
                )

    def _mutable_kind(self, value: ast.expr, imports: dict[str, str]) -> Optional[str]:
        if isinstance(value, ast.List):
            return "list"
        if isinstance(value, ast.Dict):
            return "dict"
        if isinstance(value, ast.Set):
            return "set"
        if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return "comprehension"
        if isinstance(value, ast.Call):
            name = canonical_name(value.func, imports)
            if name in self._MUTABLE_CALLS:
                return f"{name}()"
        return None


# ----------------------------------------------------------------------
# SIM006 — process-level parallelism only via repro.perf
# ----------------------------------------------------------------------
@register
class UnmanagedParallelismRule(Rule):
    code = "SIM006"
    name = "unmanaged-parallelism"
    rationale = (
        "Worker processes must be spawned through the repro.perf sweep "
        "executor, which derives each point's RNG root from (seed, point "
        "key) and collects results in task order; a bare "
        "ProcessPoolExecutor/multiprocessing/os.fork elsewhere ties results "
        "to worker identity and completion order, so parallel runs stop "
        "being bit-identical to serial ones."
    )

    #: Canonical dotted names that create worker processes or pools.
    _PARALLEL_CALLS = frozenset(
        {
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
            "multiprocessing.Pool",
            "multiprocessing.Process",
            "multiprocessing.pool.Pool",
            "multiprocessing.get_context",
            "os.fork",
            "os.forkpty",
        }
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_parallel_sanctioned(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, module.imports)
            if name in self._PARALLEL_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"direct {name}() outside repro/perf; route the fan-out "
                    "through repro.perf.SweepExecutor so per-point seeding "
                    "and ordered collection keep parallel runs deterministic",
                )


# ----------------------------------------------------------------------
# SIM007 — result artifacts are written atomically
# ----------------------------------------------------------------------
@register
class NonAtomicWriteRule(Rule):
    code = "SIM007"
    name = "non-atomic-write"
    rationale = (
        "A crash (or an operator's Ctrl-C) landing mid-write leaves a "
        "truncated file that a later reader (the result cache, a golden "
        "comparison) would silently trust; result artifacts must go through "
        "repro.resilience.atomicio, which stages a tmp file and renames "
        "it into place so readers only ever see complete content."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_atomic_sanctioned(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield self.finding(
                    module,
                    node,
                    f"direct .{func.attr}() can be torn by a crash mid-write; "
                    "use repro.resilience.atomicio.atomic_write_text",
                )
                continue
            name = _call_name(node, module.imports)
            if name in ("json.dump", "pickle.dump"):
                helper = (
                    "atomic_write_json"
                    if name == "json.dump"
                    else "atomic_write_text (serialize to a string/bytes first)"
                )
                yield self.finding(
                    module,
                    node,
                    f"direct {name}() to a file can be torn by a crash "
                    f"mid-write; use repro.resilience.atomicio.{helper}",
                )


# ----------------------------------------------------------------------
# SIM010 — blame records keep the fixed attribution vocabulary
# ----------------------------------------------------------------------
@register
class BlameVocabularyRule(Rule):
    code = "SIM010"
    name = "blame-vocabulary"
    rationale = (
        "Causal attribution (repro.obs.attrib) compares blame breakdowns "
        "across runs and machines; a blame record whose category drifts "
        "outside the fixed vocabulary, or that omits the 'resource' "
        "causal edge, silently vanishes from every diff and regression "
        "gate.  Blame goes through Tracer.add_blame — add_span(cat="
        "'blame') bypasses attribution entirely.  The tracer also "
        "rejects these at runtime, but only on code paths a test "
        "actually traces — the lint catches dead ones."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        from repro.obs.tracer import BLAME_CATEGORIES

        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            name_id = func.id if isinstance(func, ast.Name) else None
            callee = attr or name_id
            kw = {k.arg: k.value for k in node.keywords if k.arg}
            if callee == "add_span":
                cat = kw.get("cat")
                if isinstance(cat, ast.Constant) and cat.value == "blame":
                    yield self.finding(
                        module,
                        node,
                        "blame intervals do not go through add_span (the "
                        "tracer raises at runtime); use Tracer.add_blame so "
                        "attribution and `repro obs diff` see them",
                    )
                continue
            if callee != "add_blame":
                continue
            category = node.args[0] if node.args else kw.get("cat")
            if (
                isinstance(category, ast.Constant)
                and isinstance(category.value, str)
                and category.value not in BLAME_CATEGORIES
            ):
                yield self.finding(
                    module,
                    node,
                    f"blame category {category.value!r} is outside the fixed "
                    f"vocabulary {BLAME_CATEGORIES}; diffs and regression "
                    "gates only compare known categories",
                )
            resource = kw.get("resource")
            if resource is None and len(node.args) >= 6:
                resource = node.args[5]
            if resource is None or (
                isinstance(resource, ast.Constant) and not resource.value
            ):
                yield self.finding(
                    module,
                    node,
                    "blame record lacks the 'resource' causal edge; "
                    "attribution cannot rank blocking resources without it",
                )


# ----------------------------------------------------------------------
# SIM011 — literal outage windows are ordered, disjoint, crash-last
# ----------------------------------------------------------------------
_SCHEDULE_CLASSES = frozenset({"LenderFailureSchedule", "LinkFailureSchedule"})

#: Failure kinds whose window never ends (must terminate the schedule).
_TERMINAL_KINDS = frozenset({"crash"})


def _outage_literal(element: ast.expr):
    """``(start, duration, kind)`` of one literal outage, else ``None``.

    Handles both shapes: a bare ``(start, duration)`` tuple
    (:class:`~repro.core.resilience.failures.LinkFailureSchedule`) and a
    ``LenderOutage(start, duration, kind)`` call.  Returns ``None`` when
    any field is not a compile-time constant — runtime validation owns
    those.
    """
    if isinstance(element, (ast.Tuple, ast.List)) and len(element.elts) >= 2:
        start, duration = element.elts[0], element.elts[1]
        if all(isinstance(v, ast.Constant) for v in (start, duration)):
            return start.value, duration.value, "restart"
        return None
    if isinstance(element, ast.Call):
        func = element.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee != "LenderOutage":
            return None
        kw = {k.arg: k.value for k in element.keywords if k.arg}
        fields = list(element.args) + [None] * 3
        start = fields[0] if element.args else kw.get("start")
        duration = (
            fields[1] if len(element.args) > 1 else kw.get("duration")
        )
        kind = fields[2] if len(element.args) > 2 else kw.get("kind")
        if not (
            isinstance(start, ast.Constant) and isinstance(duration, ast.Constant)
        ):
            return None
        kind_value = (
            kind.value
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str)
            else "restart"
        )
        return start.value, duration.value, kind_value
    return None


@register
class OutageWindowRule(Rule):
    code = "SIM011"
    name = "outage-windows"
    rationale = (
        "Failure schedules assume ordered, disjoint outage windows; the "
        "sweep machinery binary-searches and early-exits on that order, "
        "so an unsorted or overlapping literal silently mis-times every "
        "downstream failover.  The validated constructors raise at "
        "runtime, but only on code paths a test actually executes — "
        "literal schedules on dead branches (a quick-mode ladder, a "
        "disabled scenario) ship broken.  A crash window never ends, so "
        "nothing may be scheduled after it."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_outage_sanctioned(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if callee not in _SCHEDULE_CLASSES:
                continue
            kw = {k.arg: k.value for k in node.keywords if k.arg}
            outages = kw.get("outages") or (node.args[0] if node.args else None)
            if not isinstance(outages, (ast.Tuple, ast.List)):
                continue
            windows = [_outage_literal(el) for el in outages.elts]
            if any(w is None for w in windows):
                continue  # not fully constant: runtime validation owns it
            last_end: Optional[float] = -1
            for start, duration, kind in windows:
                if not all(
                    isinstance(v, (int, float)) for v in (start, duration)
                ):
                    last_end = None
                    break
                if last_end is None:
                    yield self.finding(
                        module,
                        node,
                        "outage window scheduled after a crash window, which "
                        "never ends; a crash must be the final entry",
                    )
                    break
                if start <= last_end:
                    yield self.finding(
                        module,
                        node,
                        "literal outage windows are unsorted or overlapping; "
                        "schedules require ordered, disjoint windows "
                        f"(window at {start} starts inside/before the "
                        "previous one)",
                    )
                    break
                last_end = None if kind in _TERMINAL_KINDS else start + duration


# ----------------------------------------------------------------------
# SIM012 — no ad-hoc heaps on simulator event state outside the kernel
# ----------------------------------------------------------------------
#: Mutating heap operations that impose an ordering on their container.
_HEAPQ_MUTATORS = frozenset(
    {
        "heapq.heappush",
        "heapq.heappop",
        "heapq.heapify",
        "heapq.heappushpop",
        "heapq.heapreplace",
    }
)


@register
class AdHocEventHeapRule(Rule):
    code = "SIM012"
    name = "ad-hoc-event-heap"
    rationale = (
        "The kernel's event queue (one heap plus a same-time FIFO) is the single "
        "ordered frontier of simulated time: its (time, seq) total order, "
        "lazy-cancel accounting and snapshot format are what make runs "
        "bit-reproducible and restorable.  A module that schedules events "
        "AND keeps its own heapq of pending work maintains a second, "
        "shadow frontier the kernel cannot see — it won't be compacted, "
        "won't snapshot, and ties dispatch order to local container "
        "history.  Schedule through the Simulator instead; only "
        "repro/sim/ (the kernel itself) may heap-order event state."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_heapq_sanctioned(module.rel):
            return
        if not _module_schedules(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, module.imports)
            if name in _HEAPQ_MUTATORS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() in a module that schedules simulator events; "
                    "a private heap is a shadow event frontier the kernel "
                    "cannot snapshot or compact — schedule through the "
                    "Simulator instead",
                )


# ----------------------------------------------------------------------
# SIM013 — retry loops are bounded by a budget, deadline, or attempt cap
# ----------------------------------------------------------------------

#: Call names (final segment) that (re-)issue work on a shared resource.
_RETRY_ACTION_CALLS = frozenset(
    {
        "send",
        "transmit",
        "transmit_packet",
        "reserve",
        "acquire",
        "admit",
        "request",
        "replay",
    }
)

#: Call names (final segment) that bound a retry loop: they charge a
#: budget, check a deadline, or raise when the allowance is spent.
_RETRY_BOUND_CALLS = frozenset(
    {
        "charge_retry",
        "check_deadline",
        "try_charge",
        "expired",
        "clamp_wake",
    }
)

#: Identifier fragments in a comparison that indicate an attempt cap.
_RETRY_BOUND_NAME_HINTS = ("budget", "max_retries", "deadline", "attempt", "retries")

#: Exception-name fragments whose raise terminates a retry loop.
_RETRY_BOUND_RAISE_HINTS = ("Exhausted", "Exceeded", "Overload", "Shed", "CircuitOpen")


def _bare_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class UnboundedRetryRule(Rule):
    code = "SIM013"
    name = "unbounded-retry"
    rationale = (
        "An ARQ/admission retry loop with no retry budget, deadline, or "
        "attempt cap is the raw material of a metastable failure: under "
        "overload every attempt times out, each timeout re-issues the "
        "work, and the storm sustains collapse after the trigger clears "
        "(the `metastable` experiment reproduces exactly this).  A "
        "while-True loop that re-issues work after a simulated wait "
        "must consult a bounding mechanism — charge_retry / try_charge "
        "/ check_deadline / an attempt-count comparison — or raise an "
        "Exhausted/Exceeded/Overload error.  The sweep executor is "
        "sanctioned by path: it dispatches host-side work to worker "
        "processes, not simulated traffic."
    )

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        assert module.tree is not None
        if config.is_retry_sanctioned(module.rel):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            has_action = has_wait = has_bound = False
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                    has_wait = True
                elif isinstance(sub, ast.Call):
                    name = _bare_name(sub.func)
                    if name is None:
                        continue
                    if name in _RETRY_ACTION_CALLS:
                        has_action = True
                    low = name.lower()
                    if name in _RETRY_BOUND_CALLS or "budget" in low or "deadline" in low:
                        has_bound = True
                elif isinstance(sub, ast.Raise) and sub.exc is not None:
                    exc = sub.exc
                    ename = _bare_name(exc.func) if isinstance(exc, ast.Call) else _bare_name(exc)
                    if ename and any(h in ename for h in _RETRY_BOUND_RAISE_HINTS):
                        has_bound = True
                elif isinstance(sub, ast.Compare):
                    for side in (sub.left, *sub.comparators):
                        sname = _bare_name(side)
                        if sname and any(
                            h in sname.lower() for h in _RETRY_BOUND_NAME_HINTS
                        ):
                            has_bound = True
            if has_action and has_wait and not has_bound:
                yield self.finding(
                    module,
                    node,
                    "while-True loop re-issues work after a simulated wait "
                    "with no retry budget, deadline, or attempt cap; under "
                    "overload this loop is a retry storm — charge a budget "
                    "(transport.charge_retry / RetryBudget.try_charge), "
                    "check a deadline, or cap attempts",
                )


def _is_constant_style(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper()


def _is_empty_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Call):
        return not value.args and not value.keywords
    return False


# ----------------------------------------------------------------------
# Whole-program rules (run only with --flow; see repro.tools.simlint.flow)
# ----------------------------------------------------------------------
@register_flow
class CrossModuleFloatTimeRule(FlowRule):
    """SIM003 upgraded across function and module boundaries.

    The single-module :class:`FloatTimeRule` only sees floats that are
    *locally obvious* (a ``/``, a float literal, ``time.time()``...).
    This extension propagates return types through the call graph, so a
    helper in ``repro.units`` returning seconds-as-float is caught even
    when the leak surfaces three modules away.  Sites the single-module
    pass already reports are skipped — the two passes never double-count.
    """

    code = "SIM003"
    name = "float-time-flow"
    rationale = FloatTimeRule.rationale

    def check_program(self, program, modules_by_rel, config) -> Iterator[Finding]:
        for rel, line, col, message in program.iter_float_time_leaks():
            yield self.finding_at(modules_by_rel, rel, line, col, message)


@register
@register_flow
class SnapshotCompletenessRule(FlowRule):
    code = "SIM008"
    name = "snapshot-completeness"
    rationale = (
        "Checkpoint/restore only round-trips state that components "
        "expose through the Snapshotable protocol.  A class that stores "
        "pending-event handles, live waitables, or fresh() RNG "
        "generators but implements neither snapshot_state nor "
        "restore_state makes every checkpoint silently lossy: a resumed "
        "run diverges from an uninterrupted one, which defeats the "
        "restore-then-run determinism contract."
    )

    def check_program(self, program, modules_by_rel, config) -> Iterator[Finding]:
        for rel, line, col, message in program.iter_snapshot_gaps(
            config.flow_sim_roots, config.is_snapshot_exempt
        ):
            yield self.finding_at(modules_by_rel, rel, line, col, message)


@register
@register_flow
class WorkerSharedStateRule(FlowRule):
    code = "SIM009"
    name = "worker-shared-state"
    rationale = (
        "The parallel sweep executor forks worker processes; module- or "
        "closure-level state written inside a worker mutates that "
        "process's private copy only.  Serial and parallel runs of the "
        "same sweep then observe different state histories and stop "
        "being bit-identical.  Worker-side persistence must flow "
        "through the result cache or atomicio — never through writable "
        "globals."
    )

    def check_program(self, program, modules_by_rel, config) -> Iterator[Finding]:
        for rel, line, col, message in program.iter_worker_state_races(
            config.is_worker_state_sanctioned
        ):
            yield self.finding_at(modules_by_rel, rel, line, col, message)
