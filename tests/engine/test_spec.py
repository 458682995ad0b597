"""Unit tests: spec expansion, seed derivation, canonical hashing."""

import json
import math
from dataclasses import dataclass

import pytest

from repro.engine.canon import canonical_json, content_hash, to_jsonable
from repro.engine.registry import get_spec
from repro.engine.runner import run_experiment
from repro.engine.spec import (
    ExperimentSpec,
    TrialContext,
    derive_seed,
    parse_sweep,
)


def _echo(ctx: TrialContext) -> dict:
    return dict(ctx.params)


def make_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="unit",
        title="unit spec",
        source="test",
        trial=_echo,
        grid={"mode": ["a", "b"], "level": [1, 2, 3]},
        defaults={"duration_s": 10.0, "seed": 42},
        short={"duration_s": 1.0},
        seed_param="seed",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExpand:
    def test_cartesian_product_in_sorted_axis_order(self):
        plans = make_spec().expand()
        assert len(plans) == 6
        # Axes iterate sorted by name: level before mode.
        assert [(p.params["level"], p.params["mode"]) for p in plans] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "b")]
        for plan in plans:
            assert plan.params["duration_s"] == 10.0

    def test_short_overrides_scalars_and_axes(self):
        spec = make_spec(short={"duration_s": 1.0, "level": [1]})
        plans = spec.expand(short=True)
        assert len(plans) == 2
        assert all(p.params["duration_s"] == 1.0 for p in plans)
        assert all(p.params["level"] == 1 for p in plans)

    def test_sweep_replaces_axis_and_promotes_scalar(self):
        plans = make_spec().expand(sweep={"level": [9],
                                          "duration_s": [1.0, 2.0]})
        assert len(plans) == 4
        assert {p.params["duration_s"] for p in plans} == {1.0, 2.0}
        assert all(p.params["level"] == 9 for p in plans)

    def test_sweep_unknown_param_raises(self):
        with pytest.raises(KeyError, match="no parameter 'bogus'"):
            make_spec().expand(sweep={"bogus": [1]})

    def test_trial_ids_are_stable_and_unique(self):
        plans = make_spec().expand()
        ids = [p.trial_id for p in plans]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "unit[level=1,mode=a]"

    def test_no_axes_id_is_bare_name(self):
        spec = make_spec(grid={}, defaults={"x": 1})
        plans = spec.expand()
        assert len(plans) == 1
        assert plans[0].trial_id == "unit"


class TestSeeds:
    def test_no_base_seed_keeps_reference_seed(self):
        for plan in make_spec().expand():
            assert plan.seed == 42
            assert plan.params["seed"] == 42

    def test_unseeded_spec_gets_zero(self):
        spec = make_spec(seed_param=None,
                         defaults={"duration_s": 10.0})
        assert all(p.seed == 0 for p in spec.expand())

    def test_base_seed_derives_distinct_per_trial(self):
        plans = make_spec().expand(base_seed=7)
        seeds = [p.seed for p in plans]
        assert len(set(seeds)) == len(seeds)
        for plan in plans:
            assert 1 <= plan.seed < 2 ** 31
            assert plan.params["seed"] == plan.seed

    def test_derived_seed_is_pure_function(self):
        params = {"mode": "a", "level": 1, "duration_s": 10.0}
        assert derive_seed(7, "unit", params) == derive_seed(7, "unit",
                                                             dict(params))
        assert derive_seed(7, "unit", params) != derive_seed(8, "unit",
                                                             params)
        assert derive_seed(7, "unit", params) != derive_seed(7, "other",
                                                             params)

    def test_base_seed_reproducible_across_expansions(self):
        a = make_spec().expand(base_seed=123)
        b = make_spec().expand(base_seed=123)
        assert [p.seed for p in a] == [p.seed for p in b]


class TestParseSweep:
    def test_coerces_to_template_types(self):
        spec = make_spec(defaults={"duration_s": 10.0, "seed": 42,
                                   "enabled": True, "label": "x"})
        sweep = parse_sweep(spec, ["duration_s=1,2.5", "seed=9",
                                   "enabled=true,false", "label=a,b",
                                   "mode=a"])
        assert sweep["duration_s"] == [1.0, 2.5]
        assert sweep["seed"] == [9]
        assert sweep["enabled"] == [True, False]
        assert sweep["label"] == ["a", "b"]
        assert sweep["mode"] == ["a"]

    def test_rejects_unknown_and_malformed(self):
        spec = make_spec()
        with pytest.raises(KeyError):
            parse_sweep(spec, ["bogus=1"])
        with pytest.raises(ValueError):
            parse_sweep(spec, ["no-equals"])
        with pytest.raises(ValueError):
            parse_sweep(spec, ["enabled=maybe"]) if "enabled" in \
                spec.defaults else parse_sweep(spec, ["seed="])


    def test_rejects_a_value_given_twice(self):
        """Two equal values would expand into two trials with one id,
        which the artifact writer refuses after running both."""
        spec = make_spec(defaults={"duration_s": 10.0, "seed": 42})
        with pytest.raises(ValueError, match="--sweep seed=9,9 repeats a value"):
            parse_sweep(spec, ["seed=9,9"])
        with pytest.raises(ValueError, match="duration_s"):
            parse_sweep(spec, ["duration_s=1,2,1.0"])
        assert parse_sweep(spec, ["seed=9,10"]) == {"seed": [9, 10]}

    def test_none_default_takes_none_or_an_int(self):
        """A ``None`` default is an optional count: ``none`` (any case,
        as the trial id spells it) or an int, never a string the trial
        would compare against an int."""
        spec = get_spec("controller_crash_recovery")
        sweep = parse_sweep(spec, ["snapshot_every=5,NONE"])
        assert sweep == {"snapshot_every": [5, None]}
        with pytest.raises(ValueError, match="--sweep snapshot_every=x"):
            parse_sweep(spec, ["snapshot_every=x"])
        run = run_experiment("controller_crash_recovery", short=True,
                             sweep=sweep)
        assert not run.failures(), run.failures()
        assert [trial.result["snapshot_used"] for trial in run.trials] \
            == [True, False]

    def test_errors_name_the_parameter(self):
        spec = make_spec(defaults={"seed": 42})
        with pytest.raises(ValueError, match="--sweep seed=x"):
            parse_sweep(spec, ["seed=x"])
        with pytest.raises(KeyError, match="no parameter 'bogus'"):
            parse_sweep(spec, ["bogus=1"])


@dataclass
class _Point:
    x: int
    y: float


class TestCanon:
    def test_dataclasses_tuples_sets_normalize(self):
        value = to_jsonable({"p": _Point(1, 2.0), "t": (1, 2),
                             "s": {3, 1, 2}})
        assert value == {"p": {"x": 1, "y": 2.0}, "t": [1, 2],
                         "s": [1, 2, 3]}

    def test_non_finite_floats_become_strings(self):
        assert to_jsonable(float("nan")) == "nan"
        assert to_jsonable(math.inf) == "inf"
        assert to_jsonable(-math.inf) == "-inf"

    def test_canonical_json_is_key_order_independent(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert json.loads(a) == {"a": [1, 2], "b": 1}

    def test_content_hash_stability(self):
        payload = {"spec": "unit", "params": {"mode": "a"}}
        assert content_hash(payload) == content_hash(dict(payload))
        assert content_hash(payload) != content_hash(
            {"spec": "unit", "params": {"mode": "b"}})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
