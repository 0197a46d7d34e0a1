"""Rule registry: finding record, rule base class, and rule lookup.

Every rule is a class with a unique ``SIMxxx`` code.  Registration is
explicit (a decorator) so importing :mod:`repro.tools.simlint.rules`
populates the registry exactly once, and the CLI / tests can enumerate,
select, and document rules without hard-coding the rule list anywhere
else.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Sequence, Type

from repro.errors import ReproError

__all__ = [
    "Finding",
    "FlowRule",
    "LintConfig",
    "LintError",
    "Rule",
    "RunScopeRule",
    "all_flow_rules",
    "all_rules",
    "all_run_scope_rules",
    "get_rule",
    "register",
    "register_flow",
    "register_run_scope",
    "rule_code_span",
    "select_flow_rules",
    "select_rules",
    "select_run_scope_rules",
]


class LintError(ReproError):
    """Bad analyzer input (unknown rule code, unreadable baseline...)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule.

    Orderable so reports are stable: sorted by path, then position,
    then code.  ``snippet`` (the stripped source line) rides along for
    baseline fingerprinting but does not participate in ordering.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str = field(default="", compare=False)

    def location(self) -> str:
        """``path:line:col`` prefix used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        """JSON-serializable form (reporters and baselines)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by all rules.

    Paths are matched as ``/``-separated suffixes/fragments against the
    normalized (posix) path of the module under analysis, so the config
    works no matter which directory the analyzer is invoked from.
    """

    #: Modules allowed to touch ``numpy.random`` / ``random`` directly:
    #: the stream registry itself is the single sanctioned constructor.
    rng_sanctioned_suffixes: tuple[str, ...] = ("repro/sim/rng.py",)

    #: Packages where module-level mutable state breaks run isolation
    #: (SIM005).  Matched as path fragments.
    stateful_packages: tuple[str, ...] = (
        "repro/sim",
        "repro/engine",
        "repro/core",
        "repro/net",
        "repro/nic",
        "repro/node",
        "repro/mem",
    )

    #: Packages allowed to spawn worker processes directly (SIM006):
    #: the sweep executor is the single sanctioned fan-out point.
    parallel_sanctioned_fragments: tuple[str, ...] = ("repro/perf/",)

    #: Modules allowed to write files non-atomically (SIM007): the
    #: atomic-write helper is the single sanctioned writer of result
    #: artifacts (its tmp-then-rename dance necessarily writes directly).
    atomic_sanctioned_suffixes: tuple[str, ...] = ("repro/resilience/atomicio.py",)

    #: Packages exempt from SIM008 snapshot-completeness: the kernel and
    #: process layer are captured wholesale by the Simulator.snapshot()
    #: pickle (heap callbacks pin waitables into the blob), so their own
    #: classes need no separate Snapshotable implementation.
    snapshot_exempt_fragments: tuple[str, ...] = ("repro/sim/",)

    #: Module-name prefixes whose (transitive) import marks a module as
    #: "reachable from Simulator roots" for SIM008.
    flow_sim_roots: tuple[str, ...] = ("repro.sim",)

    #: Packages whose module-level writes are the *sanctioned* worker
    #: persistence paths for SIM009: the result cache and sweep executor
    #: (``repro/perf/``) and atomic IO (``repro/resilience/``).  The analysis
    #: toolchain (``repro/tools/``) is also exempt: its rule registries
    #: are populated by import-time decorators and workers never import
    #: it — only the approximate ``?.method`` call edges (e.g. a model's
    #: ``.register()``) can reach it, and those are false paths.
    worker_state_sanctioned_fragments: tuple[str, ...] = (
        "repro/resilience/",
        "repro/perf/",
        "repro/tools/",
    )

    #: Packages allowed to heap-order simulator event state (SIM012):
    #: the kernel's own event queue (binary heap plus same-time FIFO)
    #: is the single sanctioned ordered frontier.
    heapq_sanctioned_fragments: tuple[str, ...] = ("repro/sim/",)

    #: Modules exempt from SIM011 literal-outage-window checks: the
    #: schedule validators themselves (their docstrings/tests exercise
    #: deliberately malformed windows).
    outage_sanctioned_suffixes: tuple[str, ...] = (
        "repro/core/resilience/failures.py",
    )

    #: Packages whose while-True retry loops are sanctioned for SIM013:
    #: the sweep executor (``repro/perf/``) dispatches host-side work to
    #: worker processes, not simulated traffic, so a re-dispatch loop
    #: there cannot feed a simulated retry storm.
    retry_sanctioned_fragments: tuple[str, ...] = ("repro/perf/",)

    def is_rng_sanctioned(self, path: str) -> bool:
        """True if *path* may construct raw generators (the registry)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(norm.endswith("/" + s) for s in self.rng_sanctioned_suffixes)

    def is_parallel_sanctioned(self, path: str) -> bool:
        """True if *path* may manage process-level parallelism (SIM006)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(f"/{frag.strip('/')}/" in norm for frag in self.parallel_sanctioned_fragments)

    def is_atomic_sanctioned(self, path: str) -> bool:
        """True if *path* may write files directly (the atomic helper)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(norm.endswith("/" + s) for s in self.atomic_sanctioned_suffixes)

    def in_stateful_package(self, path: str) -> bool:
        """True if *path* lives where SIM005 applies."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(f"/{pkg}/" in norm for pkg in self.stateful_packages)

    def is_snapshot_exempt(self, path: str) -> bool:
        """True if *path* is exempt from SIM008 (the kernel itself)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(f"/{frag.strip('/')}/" in norm for frag in self.snapshot_exempt_fragments)

    def is_worker_state_sanctioned(self, path: str) -> bool:
        """True if *path* may persist worker state directly (SIM009)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(
            f"/{frag.strip('/')}/" in norm
            for frag in self.worker_state_sanctioned_fragments
        )

    def is_heapq_sanctioned(self, path: str) -> bool:
        """True if *path* may heap-order event state (the kernel, SIM012)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(
            f"/{frag.strip('/')}/" in norm
            for frag in self.heapq_sanctioned_fragments
        )

    def is_outage_sanctioned(self, path: str) -> bool:
        """True if *path* may build malformed literal schedules (SIM011)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(norm.endswith("/" + s) for s in self.outage_sanctioned_suffixes)

    def is_retry_sanctioned(self, path: str) -> bool:
        """True if *path* may loop retries unbounded (sweep executor, SIM013)."""
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(
            f"/{frag.strip('/')}/" in norm
            for frag in self.retry_sanctioned_fragments
        )


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects.  Rules must be stateless across
    modules — a fresh instance is used per run, and ``check`` receives
    everything it needs.
    """

    code: ClassVar[str] = "SIM000"
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, module, config: LintConfig) -> Iterator[Finding]:
        """Yield findings for *module* (a :class:`walker.ModuleInfo`)."""
        raise NotImplementedError

    def finding(self, module, node, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST *node*."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            path=module.rel,
            line=line,
            col=col,
            code=self.code,
            message=message,
            snippet=snippet,
        )


class RunScopeRule(Rule):
    """Base class for rules that see every module of a run at once.

    Per-module rules are blind to cross-component collisions (two files
    registering the same RNG stream name, say); run-scope rules receive
    the whole module list after the per-module pass and may correlate
    across files.  They live in a separate registry so a run-scope rule
    may *extend* an existing per-module code (its findings carry that
    code, and ``--select`` picks both up together).
    """

    def check(self, module, config: LintConfig) -> Iterator[Finding]:
        """Run-scope rules contribute nothing in the per-module pass."""
        return iter(())

    def check_run(self, modules: Sequence, config: LintConfig) -> Iterator[Finding]:
        """Yield findings after seeing *every* module of the run."""
        raise NotImplementedError


class FlowRule(Rule):
    """Base class for whole-program (simflow) rules.

    Flow rules run only when the interprocedural pass is enabled
    (``--flow``): the runner builds one
    :class:`~repro.tools.simlint.flow.propagate.Program` from every
    module's summary and hands it to each selected flow rule's
    :meth:`check_program`.  A flow rule may *extend* an existing
    per-module code (SIM003's cross-boundary upgrade) or carry its own
    (SIM008/SIM009); in the latter case the class is also registered as
    a per-module rule — with a no-op :meth:`check` — purely so the
    catalog, ``--select``, and baselines know the code exists.
    """

    #: Shown in the rule catalog: this code only fires with ``--flow``.
    requires_flow: ClassVar[bool] = True

    def check(self, module, config: LintConfig) -> Iterator[Finding]:
        """Flow rules contribute nothing in the per-module pass."""
        return iter(())

    def check_program(self, program, modules_by_rel, config: LintConfig) -> Iterator[Finding]:
        """Yield findings for the whole *program* (a flow ``Program``).

        *modules_by_rel* maps each analyzed path to its
        :class:`~repro.tools.simlint.walker.ModuleInfo` so findings can
        carry source snippets (for baseline fingerprints).
        """
        raise NotImplementedError

    def finding_at(
        self, modules_by_rel, rel: str, line: int, col: int, message: str
    ) -> Finding:
        """Build a :class:`Finding` from a raw (rel, line, col) site."""
        snippet = ""
        module = modules_by_rel.get(rel)
        if module is not None and 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            path=rel, line=line, col=col, code=self.code, message=message, snippet=snippet
        )


_RULES: dict[str, Type[Rule]] = {}
_RUN_SCOPE_RULES: dict[str, Type[RunScopeRule]] = {}
_FLOW_RULES: dict[str, Type[FlowRule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to the registry (idempotent)."""
    code = cls.code
    existing = _RULES.get(code)
    if existing is not None and existing is not cls:
        raise LintError(f"duplicate rule code {code}: {existing.__name__} vs {cls.__name__}")
    _RULES[code] = cls
    return cls


def all_rules() -> list[Type[Rule]]:
    """Every registered rule class, sorted by code."""
    import repro.tools.simlint.rules  # noqa: F401  (registration side effect)

    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(code: str) -> Type[Rule]:
    """Look up one rule class by its ``SIMxxx`` code."""
    for cls in all_rules():
        if cls.code == code:
            return cls
    raise LintError(f"unknown rule code {code!r} (have: {', '.join(sorted(_RULES))})")


def select_rules(codes: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the requested rules (all of them when *codes* is None)."""
    if codes is None:
        return [cls() for cls in all_rules()]
    return [get_rule(code)() for code in codes]


def register_run_scope(cls: Type[RunScopeRule]) -> Type[RunScopeRule]:
    """Class decorator adding *cls* to the run-scope registry.

    The code may coincide with a per-module rule's code (the run-scope
    rule then extends that rule family), but two *run-scope* rules may
    not share one.
    """
    existing = _RUN_SCOPE_RULES.get(cls.code)
    if existing is not None and existing is not cls:
        raise LintError(
            f"duplicate run-scope rule code {cls.code}: "
            f"{existing.__name__} vs {cls.__name__}"
        )
    _RUN_SCOPE_RULES[cls.code] = cls
    return cls


def all_run_scope_rules() -> list[Type[RunScopeRule]]:
    """Every registered run-scope rule class, sorted by code."""
    import repro.tools.simlint.rules  # noqa: F401  (registration side effect)

    return [_RUN_SCOPE_RULES[code] for code in sorted(_RUN_SCOPE_RULES)]


def select_run_scope_rules(codes: Iterable[str] | None = None) -> list[RunScopeRule]:
    """Instantiate the run-scope rules matching *codes* (all when None).

    Unlike :func:`select_rules` this filters rather than resolves:
    unknown codes were already rejected by the per-module selection, and
    a code without a run-scope extension simply selects nothing here.
    """
    if codes is None:
        return [cls() for cls in all_run_scope_rules()]
    wanted = set(codes)
    return [cls() for cls in all_run_scope_rules() if cls.code in wanted]


def register_flow(cls: Type[FlowRule]) -> Type[FlowRule]:
    """Class decorator adding *cls* to the flow (whole-program) registry.

    As with run-scope rules, the code may coincide with a per-module
    rule's code (the flow rule then extends that family — SIM003), but
    two *flow* rules may not share one.
    """
    existing = _FLOW_RULES.get(cls.code)
    if existing is not None and existing is not cls:
        raise LintError(
            f"duplicate flow rule code {cls.code}: "
            f"{existing.__name__} vs {cls.__name__}"
        )
    _FLOW_RULES[cls.code] = cls
    return cls


def all_flow_rules() -> list[Type[FlowRule]]:
    """Every registered flow rule class, sorted by code."""
    import repro.tools.simlint.rules  # noqa: F401  (registration side effect)

    return [_FLOW_RULES[code] for code in sorted(_FLOW_RULES)]


def select_flow_rules(codes: Iterable[str] | None = None) -> list[FlowRule]:
    """Instantiate the flow rules matching *codes* (all when None).

    Filter semantics, mirroring :func:`select_run_scope_rules`.
    """
    if codes is None:
        return [cls() for cls in all_flow_rules()]
    wanted = set(codes)
    return [cls() for cls in all_flow_rules() if cls.code in wanted]


def rule_code_span() -> str:
    """``"SIM001..SIM009"`` — derived from the registry so CLI help and
    docs can never drift from the actual rule set again."""
    codes = sorted(cls.code for cls in all_rules())
    if not codes:
        return "SIM000"
    if len(codes) == 1:
        return codes[0]
    return f"{codes[0]}..{codes[-1]}"
