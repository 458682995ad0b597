"""Region -> worker sharding on the engine's one process pool."""

import pytest

import repro.engine.runner as runner_module
from repro.engine import ExperimentSpec, Runner
from repro.engine.runner import pool_size, run_region_tasks


def describe(region_id):
    """Module-level task (picklable for the worker pool)."""
    return {"region": region_id, "tag": region_id.upper()}


def explode(region_id):
    raise RuntimeError(f"boom in {region_id}")


def _describe_trial(ctx):
    return describe(f"r{ctx.params['index']}")


DESCRIBE_SPEC = ExperimentSpec(name="_test-describe", title="region-like",
                               source="test", trial=_describe_trial,
                               grid={"index": [0, 1, 2]})


def _spy_pool(monkeypatch):
    """Record the process count of every pool the runner opens."""
    opened = []
    get_context = runner_module.multiprocessing.get_context

    class Spy:
        def __init__(self, ctx):
            self.ctx = ctx

        def Pool(self, processes):
            opened.append(processes)
            return self.ctx.Pool(processes=processes)

    monkeypatch.setattr(runner_module.multiprocessing, "get_context",
                        lambda *a: Spy(get_context(*a)))
    return opened


class TestRunRegionTasks:
    def test_results_keyed_in_sorted_order(self):
        out = run_region_tasks(describe, ["r2", "r0", "r1"], workers=1)
        assert list(out) == ["r0", "r1", "r2"]
        assert out["r1"] == {"region": "r1", "tag": "R1"}

    def test_parallel_results_identical_to_inline(self, monkeypatch):
        opened = _spy_pool(monkeypatch)
        for regions, workers in [(6, 3), (4, 3)]:
            region_ids = [f"r{i}" for i in range(regions)]
            inline = run_region_tasks(describe, region_ids, workers=1)
            pooled = run_region_tasks(describe, region_ids, workers=workers)
            assert pooled == inline
            # Every worker runs: the pool is min(workers, regions) wide,
            # and pool_size (fleet_scale's wall.workers_effective) says so.
            assert opened.pop() == min(workers, regions) \
                == pool_size(workers, regions)
        assert opened == []

    def test_more_workers_than_regions(self):
        regions = ["r0", "r1"]
        assert run_region_tasks(describe, regions, workers=8) \
            == run_region_tasks(describe, regions, workers=1)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_region_tasks(describe, ["r0"], workers=0)

    def test_duplicate_region_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_region_tasks(describe, ["r0", "r0"], workers=1)

    def test_task_errors_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_region_tasks(explode, ["r0"], workers=1)
        with pytest.raises(RuntimeError, match="boom"):
            run_region_tasks(explode, ["r0", "r1", "r2"], workers=2)

    def test_daemonic_process_degrades_to_inline(self, monkeypatch):
        """Inside an engine pool worker (daemonic) forking again is
        illegal; the call must fall back to inline execution."""
        runs = [
            lambda workers: run_region_tasks(describe, ["r0", "r1", "r2"],
                                             workers=workers),
            lambda workers: [trial.as_artifact_entry() for trial in
                             Runner(workers).run(DESCRIBE_SPEC).trials],
        ]
        expected = [run(1) for run in runs]

        class FakeProcess:
            daemon = True

        monkeypatch.setattr(runner_module.multiprocessing,
                            "current_process", lambda: FakeProcess())
        forbidden_calls = []
        monkeypatch.setattr(
            runner_module.multiprocessing, "get_context",
            lambda *a, **k: forbidden_calls.append(a) or None)
        assert [run(2) for run in runs] == expected
        assert list(expected[0]) == ["r0", "r1", "r2"]
        assert forbidden_calls == []
