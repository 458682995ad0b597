"""Runner tests: sharding identity, speedup, artifacts, registry.

The synthetic specs used here are registered at import time so that
forked worker processes (which inherit this module) can look them up.
"""

import json
import os
import time

import pytest

import repro.engine.runner as runner_module
from repro.crypto.prng import XorShiftPrng
from repro.engine import (
    ExperimentSpec,
    Runner,
    TrialContext,
    get_spec,
    load_artifact,
    register,
    run_experiment,
    spec_names,
    unregister,
    validate_artifact,
)


def _prng_trial(ctx: TrialContext) -> dict:
    prng = XorShiftPrng(ctx.seed + ctx.params["index"])
    return {"index": ctx.params["index"],
            "draws": [prng.uniform() for _ in range(4)]}


PRNG_SPEC = register(ExperimentSpec(
    name="_test-prng",
    title="synthetic seeded trial",
    source="test",
    trial=_prng_trial,
    grid={"index": list(range(8))},
    defaults={"seed": 5},
    seed_param="seed",
))


def _sleep_trial(ctx: TrialContext) -> dict:
    time.sleep(ctx.params["sleep_s"])
    return {"index": ctx.params["index"]}


SLEEP_SPEC = register(ExperimentSpec(
    name="_test-sleep",
    title="synthetic sleeping trial",
    source="test",
    trial=_sleep_trial,
    grid={"index": list(range(8))},
    defaults={"sleep_s": 0.3},
))


def _judged_trial(ctx: TrialContext) -> dict:
    index = ctx.params["index"]
    ctx.check("index_is_not_one", index != 1, f"index={index}")
    ctx.check("index_is_small", index < 3)
    return {"index": index, "square": index * index, **ctx.verdict()}


JUDGED_SPEC = register(ExperimentSpec(
    name="_test-judged",
    title="synthetic trial whose middle point fails a check",
    source="test",
    trial=_judged_trial,
    grid={"index": [0, 1, 2]},
))


def _raising_trial(ctx: TrialContext) -> dict:
    if ctx.params["index"] == 1:
        raise RuntimeError("no result to report")
    return {"index": ctx.params["index"]}


RAISING_SPEC = register(ExperimentSpec(
    name="_test-raising",
    title="synthetic trial whose middle point raises",
    source="test",
    trial=_raising_trial,
    grid={"index": [0, 1, 2]},
))


def _host_trial(ctx: TrialContext) -> dict:
    if ctx.params["index"] == 1:
        ctx.host["wall_s"] = 0.5
    return {"index": ctx.params["index"]}


HOST_SPEC = register(ExperimentSpec(
    name="_test-host",
    title="synthetic trial whose middle point reads the host clock",
    source="test",
    trial=_host_trial,
    grid={"index": [0, 1, 2]},
))


class TestHostReadings:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_readings_are_filed_under_run_meta_by_trial_id(self, workers):
        """``ctx.host`` reaches ``run_meta["host"]`` only for the trials
        that wrote to it, and never enters a trial record."""
        run = run_experiment("_test-host", workers=workers)
        assert run.run_meta["host"] == {"_test-host[index=1]":
                                        {"wall_s": 0.5}}
        assert run.host_for(index=1) == {"wall_s": 0.5}
        assert run.host_for(index=0) == {}
        document = run.document()
        assert [trial["result"] for trial in document["trials"]] == [
            {"index": 0}, {"index": 1}, {"index": 2}]
        assert all(set(trial) == {"id", "params", "seed", "result"}
                   for trial in document["trials"])

    def test_a_run_without_readings_has_no_host_block(self):
        assert "host" not in run_experiment("_test-judged").run_meta


class TestVerdicts:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_check_keeps_every_trial_and_the_artifact(
            self, tmp_path, workers):
        run = run_experiment("_test-judged", workers=workers,
                             out_dir=str(tmp_path))
        assert run.failures() == [
            ("_test-judged[index=1]", "index_is_not_one", "index=1")]
        doc = load_artifact(run.artifact_path)
        assert [t["result"]["passed"] for t in doc["trials"]] \
            == [True, False, True]
        assert [(t["result"]["index"], t["result"]["square"])
                for t in doc["trials"]] == [(0, 0), (1, 1), (2, 4)]
        assert doc["trials"][0]["result"]["invariants"] == [
            {"name": "index_is_not_one", "passed": True,
             "detail": "index=0"},
            {"name": "index_is_small", "passed": True, "detail": ""}]

    def test_failures_is_empty_for_specs_that_record_no_check(self):
        assert run_experiment("_test-prng").failures() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_trial_that_raises_still_propagates(self, tmp_path, workers):
        with pytest.raises(RuntimeError, match="no result to report"):
            run_experiment("_test-raising", workers=workers,
                           out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)


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


class TestShardingIdentity:
    def test_pool_width_is_min_of_workers_and_trials(self, monkeypatch):
        opened = _spy_pool(monkeypatch)
        inline = Runner(1).run(JUDGED_SPEC).document()["trials"]
        assert opened == []
        for workers in (2, 8):
            pooled = Runner(workers).run(JUDGED_SPEC).document()["trials"]
            assert pooled == inline
            assert opened.pop() == min(workers, 3)
        assert opened == []

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_experiment("_test-prng", workers=1, base_seed=11)
        parallel = run_experiment("_test-prng", workers=4, base_seed=11)
        assert len(serial.trials) == 8
        a = json.dumps([t.as_artifact_entry() for t in serial.trials],
                       sort_keys=True)
        b = json.dumps([t.as_artifact_entry() for t in parallel.trials],
                       sort_keys=True)
        assert a == b

    def test_artifact_documents_identical_outside_run_meta(self):
        serial = run_experiment("_test-prng", workers=1).document()
        parallel = run_experiment("_test-prng", workers=3).document()
        assert serial["run_meta"] != parallel["run_meta"]
        del serial["run_meta"], parallel["run_meta"]
        assert serial == parallel

    def test_four_workers_at_least_twice_as_fast(self):
        started = time.perf_counter()
        run_experiment("_test-sleep", workers=1)
        serial_s = time.perf_counter() - started

        started = time.perf_counter()
        run_experiment("_test-sleep", workers=4)
        parallel_s = time.perf_counter() - started

        assert serial_s >= 8 * 0.3
        assert serial_s > 2 * parallel_s, (
            f"serial {serial_s:.2f}s vs 4-worker {parallel_s:.2f}s")


class TestArtifacts:
    def test_run_emits_schema_valid_artifact(self, tmp_path):
        run = run_experiment("_test-prng", out_dir=str(tmp_path))
        assert run.artifact_path == str(tmp_path / "BENCH__test_prng.json")
        doc = load_artifact(run.artifact_path)
        validate_artifact(doc)
        assert doc["schema"] == "repro-bench/1"
        assert doc["experiment"] == "_test-prng"
        assert len(doc["trials"]) == 8
        for trial in doc["trials"]:
            assert set(trial) == {"id", "params", "seed", "result"}

    def test_validate_rejects_corrupt_documents(self, tmp_path):
        run = run_experiment("_test-prng", out_dir=str(tmp_path))
        doc = load_artifact(run.artifact_path)
        bad = dict(doc, schema="other/9")
        with pytest.raises(ValueError):
            validate_artifact(bad)
        bad = dict(doc, trials=[])
        with pytest.raises(ValueError):
            validate_artifact(bad)
        bad = dict(doc, trials=[doc["trials"][0], doc["trials"][0]])
        with pytest.raises(ValueError):
            validate_artifact(bad)
        for claims in ("yes", [{"name": "c", "holds": True}]):
            with pytest.raises(ValueError):
                validate_artifact(dict(doc, claims=claims))


class TestRunnerMisc:
    def test_rejects_non_mapping_trial_result(self):
        def bad_trial(ctx):
            return [1, 2, 3]

        spec = ExperimentSpec(name="_test-bad", title="bad", source="test",
                              trial=bad_trial)
        with pytest.raises(TypeError, match="must return a mapping"):
            Runner().run(spec)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner(workers=0)

    def test_trace_dir_writes_per_trial_jsonl(self, tmp_path):
        def tel_trial(ctx):
            return {"traced": ctx.telemetry.enabled}

        spec = ExperimentSpec(name="_test-tel", title="tel", source="test",
                              trial=tel_trial)
        assert Runner().run(spec).result_for() == {"traced": False}
        run = Runner(trace_dir=str(tmp_path)).run(spec)
        assert run.result_for() == {"traced": True}
        assert os.path.exists(tmp_path / "_test-tel.jsonl")
        assert os.path.exists(tmp_path / "_test-tel.prom")


class TestRegistry:
    def test_catalog_contains_every_figure_table_and_scenario(self):
        names = set(spec_names())
        assert {"fig16", "fig17", "fig18", "fig20", "fig21",
                "table1", "table2", "table3", "aggregation", "fct", "int",
                "kmp-blackout", "crash-restart", "lossy-fig17"} <= names

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="table2"):
            get_spec("no-such-experiment")

    def test_register_is_idempotent_and_unregister_works(self):
        spec = ExperimentSpec(name="_test-tmp", title="t", source="test",
                              trial=_prng_trial)
        assert register(spec) is spec
        assert register(spec) is spec
        assert get_spec("_test-tmp") is spec
        unregister("_test-tmp")
        with pytest.raises(KeyError):
            get_spec("_test-tmp")
