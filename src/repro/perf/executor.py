"""Deterministic parallel sweep executor.

A *sweep* is a list of independent points; each point is a pure
function of its keyword arguments (config in, numbers out).  The
executor fans points out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and guarantees the result list is **bit-identical** to an inline run:

* every point's randomness derives from :func:`derive_point_seed`
  applied to ``(root seed, point key)`` — never from worker identity,
  submission order, or wall clock;
* results are collected in task order, whatever order workers finish;
* a point function must be a module-level (picklable) callable whose
  result round-trips through JSON (so the result cache can serve it
  back verbatim).

``workers=1`` (the default) degrades gracefully to a plain inline
loop in the parent process — no pool, no pickling, no subprocesses —
which is also the fallback whenever a sweep threads an observability
bundle through its points (spans cannot cross process boundaries).

A point that raises, or a worker that dies under it, fails the whole
sweep with :class:`SweepExecutionError`; the remaining workers are
killed rather than waited on.

This module is the **only** sanctioned home of process-level
parallelism in the repository (simlint rule SIM006): routing every
fan-out through here is what keeps parallel runs deterministic.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.perf.cache import ResultCache, canonical_json

__all__ = [
    "PointTask",
    "SweepExecutionError",
    "SweepExecutor",
    "derive_point_seed",
]


class SweepExecutionError(ReproError):
    """A sweep point failed, or the worker running it died."""


def derive_point_seed(seed: int, point_key: str) -> int:
    """Root seed for one sweep point, derived from ``(seed, point_key)``.

    The derivation is a pure hash — independent of which worker runs
    the point, of how many workers there are, and of submission order —
    so serial and parallel executions of the same sweep see identical
    randomness.  Distinct point keys get independent seeds, so
    reordering or subsetting a sweep never perturbs the other points.
    """
    digest = hashlib.sha256(f"{int(seed)}:{point_key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class PointTask:
    """One schedulable sweep point.

    Attributes
    ----------
    key:
        Stable identity, e.g. ``"fig2/mode=des/period=32"``.  Doubles
        as the cache identity and the seed-derivation salt, so it must
        encode everything that distinguishes this point within the
        sweep.
    fn:
        Module-level callable executed as ``fn(**kwargs)`` (must be
        picklable for ``workers > 1``).
    kwargs:
        Keyword arguments for *fn*; for cacheable sweeps these must
        canonicalize (plain data / dataclasses).
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def _invoke(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> Any:
    """Top-level trampoline so the pool pickles (fn, kwargs), not a lambda."""
    return fn(**kwargs)


def _normalize(value: Any) -> Any:
    """Round-trip *value* through canonical JSON.

    Every computed result passes through here so that a value served
    from the cache (JSON on disk) is indistinguishable — same types,
    same ordering — from one computed this run.  Without this, a
    point function returning e.g. a numpy float or a tuple would
    compare unequal to its own cached copy.
    """
    return json.loads(canonical_json(value))


def _point_failed(task: PointTask, exc: BaseException) -> SweepExecutionError:
    return SweepExecutionError(f"sweep point {task.key!r} failed: {exc}")


#: A point still to compute: (result slot, task, cache key or None).
_Pending = Tuple[int, PointTask, Optional[str]]


@dataclass
class SweepExecutor:
    """Runs sweep points, optionally in parallel and through a cache.

    Parameters
    ----------
    workers:
        Process-pool width; ``<= 1`` runs inline (deterministically
        identical, see module docstring).
    cache:
        Optional :class:`~repro.perf.cache.ResultCache`; hits skip
        execution entirely and misses are stored after computing.
    """

    workers: int = 1
    cache: Optional[ResultCache] = None

    def map(self, tasks: Sequence[PointTask]) -> List[Any]:
        """Execute *tasks*, returning their results in task order."""
        results: List[Any] = [None] * len(tasks)
        pending: List[_Pending] = []
        cache = self.cache
        for idx, task in enumerate(tasks):
            cache_key = None
            if cache is not None:
                cache_key = cache.key_for(task.key, task.kwargs)
                hit, value = cache.get(cache_key)
                if hit:
                    results[idx] = value
                    continue
            pending.append((idx, task, cache_key))

        def record(p: _Pending, raw: Any) -> None:
            """Normalize, cache, and slot one computed result."""
            idx, task, cache_key = p
            value = _normalize(raw)
            results[idx] = value
            if cache_key is not None:
                cache.put(cache_key, value, task=task.key, params=task.kwargs)

        if self.workers <= 1 or len(pending) <= 1:
            # A lone uncacheable point never pays for a pool.
            for p in pending:
                task = p[1]
                try:
                    raw = _invoke(task.fn, task.kwargs)
                except Exception as exc:
                    raise _point_failed(task, exc) from exc
                record(p, raw)
        else:
            self._run_pool(pending, record)
        return results

    def _run_pool(self, pending: List[_Pending], record) -> None:
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
        try:
            futures = [pool.submit(_invoke, task.fn, task.kwargs) for _, task, _ in pending]
            # Collect strictly in task order so downstream consumers see
            # a deterministic sequence regardless of completion order.
            for p, future in zip(pending, futures):
                task = p[1]
                try:
                    raw = future.result()
                except BrokenProcessPool as exc:
                    raise SweepExecutionError(
                        f"a sweep worker died (while waiting on {task.key!r})"
                    ) from exc
                except Exception as exc:
                    raise _point_failed(task, exc) from exc
                record(p, raw)
        except BaseException:
            # The sweep already failed (or was interrupted): take the
            # workers down rather than block on points still running.
            for proc in (getattr(pool, "_processes", None) or {}).values():
                proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
