"""SweepExecutor: ordering, determinism, failures, fallbacks."""

import os
import signal

import pytest

from repro.perf import (
    PointTask,
    ResultCache,
    SweepExecutionError,
    SweepExecutor,
    derive_point_seed,
)


def echo_point(x, seed=0):
    return {"x": x, "seed": seed}


def flaky_point(x):
    raise ValueError(f"boom {x}")


def suicidal_point(x):  # pragma: no cover - runs in a worker process
    os.kill(os.getpid(), signal.SIGKILL)
    return {"x": x}


def tuple_point(x):
    return {"pair": (x, x + 1), "value": float(x)}


class TestDerivePointSeed:
    def test_pure_function_of_inputs(self):
        assert derive_point_seed(1234, "fig2/period=8") == derive_point_seed(
            1234, "fig2/period=8"
        )

    def test_distinct_keys_get_distinct_seeds(self):
        seeds = {derive_point_seed(1234, f"p/{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_roots_get_distinct_seeds(self):
        assert derive_point_seed(1, "k") != derive_point_seed(2, "k")

    def test_fits_in_uint64(self):
        assert 0 <= derive_point_seed(999, "k") < 2**64


class TestMapping:
    def tasks(self, n=5):
        return [
            PointTask(
                key=f"echo/{i}",
                fn=echo_point,
                kwargs={"x": i, "seed": derive_point_seed(7, f"echo/{i}")},
            )
            for i in range(n)
        ]

    def test_inline_results_in_task_order(self):
        out = SweepExecutor(workers=1).map(self.tasks())
        assert [row["x"] for row in out] == [0, 1, 2, 3, 4]

    def test_parallel_bit_identical_to_inline(self):
        tasks = self.tasks()
        assert SweepExecutor(workers=1).map(tasks) == SweepExecutor(workers=3).map(tasks)

    def test_empty_sweep(self):
        assert SweepExecutor(workers=4).map([]) == []

    def test_single_point_runs_inline(self):
        # One pending point never pays for a pool.
        out = SweepExecutor(workers=8).map(self.tasks(1))
        assert out == [{"x": 0, "seed": derive_point_seed(7, "echo/0")}]

    def test_results_normalized_through_json(self):
        # Tuples become lists either way, so cached and computed values
        # compare equal.
        (out,) = SweepExecutor(workers=1).map(
            [PointTask(key="t", fn=tuple_point, kwargs={"x": 3})]
        )
        assert out == {"pair": [3, 4], "value": 3.0}


class TestFailureHandling:
    def test_inline_failure_raises_sweep_error(self):
        with pytest.raises(SweepExecutionError, match="boom 0"):
            SweepExecutor(workers=1).map(
                [PointTask(key="f/0", fn=flaky_point, kwargs={"x": 0})]
            )

    def test_parallel_failure_raises_sweep_error(self):
        tasks = [
            PointTask(key="ok", fn=echo_point, kwargs={"x": 1}),
            PointTask(key="f/1", fn=flaky_point, kwargs={"x": 1}),
        ]
        with pytest.raises(SweepExecutionError, match="f/1"):
            SweepExecutor(workers=2).map(tasks)

    def test_dead_worker_raises_sweep_error(self):
        # A worker killed under its point (OOM killer, SIGKILL) breaks
        # the pool; the sweep fails loudly instead of hanging.
        tasks = [
            PointTask(key="ok", fn=echo_point, kwargs={"x": 0}),
            PointTask(key="d/1", fn=suicidal_point, kwargs={"x": 1}),
        ]
        with pytest.raises(SweepExecutionError, match="worker died"):
            SweepExecutor(workers=2).map(tasks)


class TestCacheIntegration:
    def test_hits_skip_execution(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        tasks = [
            PointTask(key=f"e/{i}", fn=echo_point, kwargs={"x": i}) for i in range(4)
        ]
        ex = SweepExecutor(workers=1, cache=cache)
        first = ex.map(tasks)
        second = ex.map(tasks)
        assert first == second
        assert cache.stats.hits == 4
        assert cache.stats.misses == 4
        assert cache.stats.stores == 4

    def test_partial_hits_fill_in_order(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        ex = SweepExecutor(workers=1, cache=cache)
        ex.map([PointTask(key="e/1", fn=echo_point, kwargs={"x": 1})])
        out = ex.map(
            [PointTask(key=f"e/{i}", fn=echo_point, kwargs={"x": i}) for i in range(3)]
        )
        assert [row["x"] for row in out] == [0, 1, 2]

    def test_failing_point_is_not_cached(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        with pytest.raises(SweepExecutionError):
            SweepExecutor(workers=1, cache=cache).map(
                [PointTask(key="f", fn=flaky_point, kwargs={"x": 1})]
            )
        assert cache.stats.stores == 0
