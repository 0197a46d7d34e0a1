"""Fixpoint interprocedural propagation and the whole-program checks.

:func:`build_program` assembles per-module summaries into a
:class:`Program`: a function index, a class index, the import graph,
and a fixpoint of every function's return type on the simflow lattice.
The fixpoint is a plain round-robin iteration — the lattice has height
2 and resolution is monotone, so it terminates in a handful of passes
even with recursion and import cycles.

Three checkers run over the converged program:

* :meth:`Program.iter_float_time_leaks` — the cross-boundary upgrade of
  SIM003: a value that is *definitely* float (because some callee,
  possibly in another module, returns float) flowing into a
  ``schedule()`` delay or a ``Time``/``Duration``-annotated parameter;
* :meth:`Program.iter_snapshot_gaps` — SIM008: classes holding live
  simulation state (pending-event handles, waitables, unregistered RNG
  generators) reachable from simulator-importing modules without
  implementing the ``Snapshotable`` protocol;
* :meth:`Program.iter_worker_state_races` — SIM009: module-level state
  written by functions reachable from ``PointTask`` worker entry
  points, which splits across processes under ``workers=N`` and breaks
  parallel/serial bit-identity.

Checkers yield plain ``(rel, line, col, message)`` tuples; the rule
classes in :mod:`repro.tools.simlint.rules` wrap them into findings.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tools.simlint.flow.graph import ImportGraph, call_edges_dump
from repro.tools.simlint.flow.lattice import (
    BOT,
    FLOAT,
    TIME,
    UNKNOWN,
    AbstractValue,
    join,
)
from repro.tools.simlint.flow.summaries import (
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["Program", "RawFinding", "build_program"]

#: ``(rel, line, col, message)`` — a finding before rule attribution.
RawFinding = Tuple[str, int, int, str]

#: Waitable types from the process layer: live scheduled state when
#: stored on a component (matched canonically so they count even when
#: ``repro.sim.process`` itself is outside the analyzed set).
_WAITABLE_CANONICALS = frozenset(
    f"{pkg}.{name}"
    # Both the defining module and the package re-export, so the match
    # works whether or not repro.sim itself is in the analyzed set.
    for pkg in ("repro.sim.process", "repro.sim")
    for name in ("Waitable", "Signal", "Timeout", "Process", "AnyOf", "AllOf")
)

#: Cap on fixpoint passes; the lattice guarantees convergence long
#: before this, it only guards against a resolution bug looping.
_MAX_PASSES = 20


class Program:
    """The assembled whole-program view (see module docstring)."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.import_graph = ImportGraph(self.modules)
        for name, summary in self.modules.items():
            self.import_graph.add_imports(name, summary.imports.values())
        #: full dotted name -> (module name, FunctionSummary)
        self.fn_index: Dict[str, Tuple[str, FunctionSummary]] = {}
        #: full dotted name -> (module name, ClassSummary)
        self.class_index: Dict[str, Tuple[str, ClassSummary]] = {}
        #: bare trailing name -> fn keys (wildcard ?.name edges)
        self.by_method_name: Dict[str, List[str]] = {}
        for mod_name, summary in self.modules.items():
            for qual, fn in summary.functions.items():
                key = f"{mod_name}.{qual}"
                self.fn_index[key] = (mod_name, fn)
                self.by_method_name.setdefault(qual.rsplit(".", 1)[-1], []).append(key)
            for cls_name, cls in summary.classes.items():
                self.class_index[f"{mod_name}.{cls_name}"] = (mod_name, cls)
        #: Converged return types, by fn key.
        self.returns: Dict[str, str] = {key: BOT for key in self.fn_index}
        self._ref_cache: Dict[str, Optional[str]] = {}
        self._fixpoint()

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------
    def resolve_ref(self, ref: str) -> Optional[str]:
        """Resolve a dotted reference to a key in ``fn_index`` or
        ``class_index``, following re-export chains (``from .executor
        import PointTask`` in a package ``__init__``)."""
        cached = self._ref_cache.get(ref, "__miss__")
        if cached != "__miss__":
            return cached
        out = self._resolve_ref_uncached(ref, visited=set())
        self._ref_cache[ref] = out
        return out

    def _resolve_ref_uncached(self, ref: str, visited: Set[str]) -> Optional[str]:
        if ref in visited or ref.startswith("?.") or "." not in ref:
            return None
        visited.add(ref)
        if ref in self.fn_index or ref in self.class_index:
            return ref
        mod = self.import_graph.resolve_module(ref)
        if mod is None:
            return None
        remainder = ref[len(mod):].lstrip(".")
        if not remainder:
            return None
        summary = self.modules[mod]
        if remainder in summary.functions or remainder in summary.classes:
            return f"{mod}.{remainder}"
        # Re-export: the first segment may be an alias in this module.
        head, _, tail = remainder.partition(".")
        target = summary.imports.get(head)
        if target is not None:
            dotted = f"{target}.{tail}" if tail else target
            return self._resolve_ref_uncached(dotted, visited)
        return None

    def resolve_fn(self, ref: str) -> Optional[str]:
        key = self.resolve_ref(ref)
        if key is not None and key in self.fn_index:
            return key
        # Calling a class constructs it: route to __init__ when present.
        if key is not None and key in self.class_index:
            mod, cls = self.class_index[key]
            init_key = f"{mod}.{cls.name}.__init__"
            if init_key in self.fn_index:
                return init_key
        return None

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def value_of(self, value: AbstractValue, fn: Optional[FunctionSummary]) -> str:
        """Concrete lattice element of *value* under current returns."""
        out = value.base
        for ref in value.calls:
            key = self.resolve_fn(ref)
            out = join(out, self.returns[key] if key is not None else UNKNOWN)
            if out == UNKNOWN:
                return out
        for param in value.params:
            hint = fn.param_hint(param) if fn is not None else UNKNOWN
            out = join(out, hint)
            if out == UNKNOWN:
                return out
        return out

    def _fixpoint(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for key, (_mod, fn) in self.fn_index.items():
                new = join(self.returns[key], self.value_of(fn.returns, fn))
                if new != self.returns[key]:
                    self.returns[key] = new
                    changed = True
            if not changed:
                return

    # ------------------------------------------------------------------
    # SIM003 across boundaries
    # ------------------------------------------------------------------
    def iter_float_time_leaks(self) -> Iterator[RawFinding]:
        for mod_name, summary in sorted(self.modules.items()):
            for _qual, fn in sorted(summary.functions.items()):
                yield from self._check_schedule_sites(summary, fn)
                yield from self._check_call_sites(mod_name, summary, fn)

    def _float_via(self, value: AbstractValue) -> str:
        """Human-readable provenance: which callees made this float."""
        culprits = []
        for ref in value.calls:
            key = self.resolve_fn(ref)
            if key is not None and self.returns[key] == FLOAT:
                culprits.append(f"{key}()")
        if culprits:
            return " (float via " + ", ".join(sorted(set(culprits))[:3]) + ")"
        return ""

    def _check_schedule_sites(
        self, summary: ModuleSummary, fn: FunctionSummary
    ) -> Iterator[RawFinding]:
        for site in fn.schedule_sites:
            if site.obvious:
                continue  # the single-module SIM003 pass already reports it
            if self.value_of(site.value, fn) == FLOAT:
                yield (
                    summary.rel,
                    site.line,
                    site.col,
                    f"float value{self._float_via(site.value)} flows into the "
                    f"{site.what} of a schedule call; the float crosses a "
                    "function boundary, so only whole-program analysis sees "
                    "it — delays must be exact integer picoseconds "
                    "(use // or the repro.units helpers)",
                )

    def _check_call_sites(
        self, mod_name: str, summary: ModuleSummary, fn: FunctionSummary
    ) -> Iterator[RawFinding]:
        for site in fn.call_sites:
            callee_key = self.resolve_fn(site.callee)
            if callee_key is None:
                continue
            callee_mod, callee = self.fn_index[callee_key]
            time_params = {n for n, hint in callee.params if hint == TIME}
            if not time_params:
                continue
            offset = 1 if (site.bound and callee.is_method) else 0
            checks: List[Tuple[str, AbstractValue, bool, int, int]] = []
            for i, arg in enumerate(site.pos_args):
                if arg is None:
                    continue  # *args splat: positions beyond are unmapped
                idx = i + offset
                if idx >= len(callee.params):
                    break
                pname = callee.params[idx][0]
                if pname in time_params:
                    checks.append((pname, arg[0], arg[1], site.line, site.col))
            for kw_name, (value, obvious) in site.kw_args.items():
                if kw_name in time_params:
                    checks.append((kw_name, value, obvious, site.line, site.col))
            for pname, value, obvious, line, col in checks:
                if obvious:
                    continue  # single-module SIM003 already reports it
                if self.value_of(value, fn) == FLOAT:
                    where = (
                        f" (defined in {self.modules[callee_mod].rel})"
                        if callee_mod != mod_name
                        else ""
                    )
                    yield (
                        summary.rel,
                        line,
                        col,
                        f"float value{self._float_via(value)} passed for "
                        f"Time-annotated parameter {pname!r} of "
                        f"{callee_key}(){where}; simulated time is exact "
                        "integer picoseconds (use // or the repro.units "
                        "helpers)",
                    )

    # ------------------------------------------------------------------
    # SIM008 snapshot completeness
    # ------------------------------------------------------------------
    def _is_waitable_ref(self, ref: Optional[str], visited: Optional[Set[str]] = None) -> bool:
        if ref is None:
            return False
        if ref in _WAITABLE_CANONICALS:
            return True
        key = self.resolve_ref(ref)
        if key is None or key not in self.class_index:
            return False
        if visited is None:
            visited = set()
        if key in visited:
            return False
        visited.add(key)
        _mod, cls = self.class_index[key]
        return any(self._is_waitable_ref(base, visited) for base in cls.bases)

    def _implements_snapshot(
        self, cls_key: str, visited: Optional[Set[str]] = None
    ) -> bool:
        if visited is None:
            visited = set()
        if cls_key in visited or cls_key not in self.class_index:
            return False
        visited.add(cls_key)
        _mod, cls = self.class_index[cls_key]
        if cls.has_snapshot_state and cls.has_restore_state:
            return True
        for base in cls.bases:
            base_key = self.resolve_ref(base)
            if base_key is not None and self._implements_snapshot(base_key, visited):
                return True
        return False

    def _live_state_attrs(self, cls: ClassSummary) -> List[str]:
        """Descriptions of attributes that hold live simulation state."""
        live: List[str] = []
        seen: Set[str] = set()
        for attr in cls.stateful_attrs:
            if attr.attr in seen:
                continue
            if attr.kind == "schedule":
                why = "a pending-event handle from schedule()"
            elif attr.kind == "rng-fresh":
                why = "an unregistered RNG generator from fresh()"
            elif attr.kind == "call" and self._is_waitable_ref(attr.callee):
                why = f"a live waitable ({attr.callee})"
            else:
                continue
            seen.add(attr.attr)
            live.append(f"self.{attr.attr} = {why} (line {attr.line})")
        return live

    def iter_snapshot_gaps(
        self,
        sim_root_prefixes: Sequence[str] = ("repro.sim",),
        exempt=lambda rel: False,
    ) -> Iterator[RawFinding]:
        for mod_name, summary in sorted(self.modules.items()):
            if exempt(summary.rel):
                continue
            sees_sim = any(
                self.import_graph.sees_prefix(mod_name, p) for p in sim_root_prefixes
            )
            if not sees_sim:
                continue
            for cls_name, cls in sorted(summary.classes.items()):
                live = self._live_state_attrs(cls)
                if not live:
                    continue
                if self._implements_snapshot(f"{mod_name}.{cls_name}"):
                    continue
                yield (
                    summary.rel,
                    cls.line,
                    cls.col,
                    f"class {cls_name!r} holds live simulation state "
                    f"({'; '.join(live)}) but does not implement the "
                    "Snapshotable protocol (snapshot_state/restore_state), "
                    "so repro.resilience checkpoints silently drop its state",
                )

    # ------------------------------------------------------------------
    # SIM009 worker shared state
    # ------------------------------------------------------------------
    def worker_roots(self) -> Dict[str, str]:
        """fn key -> display ref for every PointTask worker entry point."""
        roots: Dict[str, str] = {}
        for summary in self.modules.values():
            for ref in summary.point_task_fns:
                key = self.resolve_fn(ref)
                if key is not None:
                    roots.setdefault(key, ref)
        return roots

    def _call_targets(self, fn: FunctionSummary) -> Iterator[str]:
        for ref in fn.calls:
            if ref.startswith("?."):
                # Approximate edge: any analyzed function with this bare
                # method name (safe for reachability, never for types).
                yield from self.by_method_name.get(ref[2:], ())
            else:
                key = self.resolve_fn(ref)
                if key is not None:
                    yield key

    def iter_worker_state_races(
        self, sanctioned=lambda rel: False
    ) -> Iterator[RawFinding]:
        roots = self.worker_roots()
        #: fn key -> the root it was first reached from.
        reached: Dict[str, str] = {}
        stack = list(roots)
        for key in stack:
            reached[key] = roots[key]
        while stack:
            cur = stack.pop()
            _mod, fn = self.fn_index[cur]
            for target in self._call_targets(fn):
                if target not in reached:
                    reached[target] = reached[cur]
                    stack.append(target)
        emitted: Set[Tuple[str, str, int]] = set()
        findings: List[RawFinding] = []
        for key in reached:
            mod_name, fn = self.fn_index[key]
            summary = self.modules[mod_name]
            if sanctioned(summary.rel):
                continue
            for write in fn.global_writes:
                dedup = (key, write.name, write.line)
                if dedup in emitted:
                    continue
                emitted.add(dedup)
                scope = "closure-level" if write.how == "nonlocal" else "module-level"
                findings.append(
                    (
                        summary.rel,
                        write.line,
                        write.col,
                        f"{scope} state {write.name!r} is written by {key}(), "
                        f"reachable from worker entry point "
                        f"{reached[key]}(); under workers=N each process "
                        "mutates its own copy, so parallel sweeps stop being "
                        "bit-identical to serial runs — keep worker state on "
                        "per-point objects or persist through the "
                        "result-cache/atomicio paths",
                    )
                )
        findings.sort()
        return iter(findings)

    # ------------------------------------------------------------------
    # Debug dump (``repro lint graph``)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        fn_calls = {key: list(fn.calls) for key, (_m, fn) in self.fn_index.items()}
        return {
            "imports": self.import_graph.to_dict(),
            "calls": call_edges_dump(fn_calls),
            "functions": {
                key: self.returns[key]
                for key in sorted(self.fn_index)
                if self.returns[key] not in (BOT, UNKNOWN)
            },
            "worker_roots": dict(sorted(self.worker_roots().items())),
            "stats": {
                "modules": len(self.modules),
                "functions": len(self.fn_index),
                "classes": len(self.class_index),
            },
        }


def build_program(summaries: Sequence[ModuleSummary]) -> Program:
    """Assemble summaries and run the fixpoint; the one-call entry point."""
    return Program(summaries)
