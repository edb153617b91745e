"""Experiment specs: refs, grid order, content hashing."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.engine.spec import AlgorithmRef, Cell, ExperimentSpec, ScenarioRef
from repro.workloads.scenarios import Scenario, nominal


def make_spec(seeds=(0, 1), window=100.0, horizon=1500.0):
    return ExperimentSpec.from_objects(
        "t",
        {"alg1": WriteEfficientOmega, "step": StepCounterOmega},
        [nominal(n=3, horizon=horizon)],
        seeds,
        window=window,
    )


class TestRefs:
    def test_factory_attaches_ref(self):
        scen = nominal(n=3, horizon=1500.0)
        assert scen.ref == ("nominal", {"n": 3, "horizon": 1500.0})

    def test_ref_includes_defaults(self):
        assert nominal().ref == ("nominal", {"n": 4, "horizon": 4000.0})

    def test_positional_and_keyword_calls_agree(self):
        assert nominal(3, 1500.0).ref == nominal(horizon=1500.0, n=3).ref

    def test_registry_algorithm_target_is_short_name(self):
        spec = make_spec()
        assert spec.algorithms[0] == AlgorithmRef(label="alg1", target="alg1")

    def test_handbuilt_scenario_rejected(self):
        bare = Scenario(name="bare", n=3, horizon=100.0)
        with pytest.raises(ValueError, match="factory ref"):
            ExperimentSpec.from_objects("t", {"alg1": WriteEfficientOmega}, [bare], [0])

    def test_scenario_fields_cannot_be_assigned(self):
        # A ref always describes its scenario because nothing can change
        # the scenario after the factory built it.
        scen = nominal(n=3)
        with pytest.raises(FrozenInstanceError):
            scen.n = 4  # type: ignore[misc]
        assert scen.n == 3 and scen.ref == ("nominal", {"n": 3, "horizon": 4000.0})

    def test_replaced_scenario_has_no_ref(self):
        assert replace(nominal(n=3), n=4).ref is None

    def test_replaced_scenario_rejected(self):
        altered = replace(nominal(n=3), n=4)
        with pytest.raises(ValueError, match="has no factory ref") as info:
            ExperimentSpec.from_objects("t", {"alg1": WriteEfficientOmega}, [altered], [0])
        assert len(str(info.value).splitlines()) == 1


class TestGrid:
    def test_cells_scenario_major_order(self):
        spec = make_spec(seeds=(7, 8))
        keys = [(c.algorithm.label, c.seed) for c in spec.cells()]
        assert keys == [("alg1", 7), ("alg1", 8), ("step", 7), ("step", 8)]

    def test_size(self):
        assert make_spec(seeds=(0, 1, 2)).size() == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="t",
                algorithms=(AlgorithmRef("a", "alg1"),),
                scenarios=(ScenarioRef.make("nominal"),),
                seeds=(),
            )

    @pytest.mark.parametrize("window", [0.0, -5.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            make_spec(window=window)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(
                name="t",
                algorithms=(AlgorithmRef("a", "alg1"), AlgorithmRef("a", "alg2")),
                scenarios=(ScenarioRef.make("nominal"),),
                seeds=(0,),
            )

    def test_cell_key_includes_all_axes(self):
        cell = Cell(
            algorithm=AlgorithmRef("alg1", "alg1"),
            scenario=ScenarioRef.make("nominal", {"n": 3}),
            seed=4,
        )
        label, scen_key, seed = cell.key
        assert label == "alg1" and seed == 4 and scen_key.startswith("nominal(")


class TestContentHash:
    def test_stable_across_instances(self):
        assert make_spec().content_hash() == make_spec().content_hash()

    def test_name_is_cosmetic(self):
        a = make_spec()
        b = ExperimentSpec(
            name="renamed",
            algorithms=a.algorithms,
            scenarios=a.scenarios,
            seeds=a.seeds,
            window=a.window,
        )
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_every_grid_axis(self):
        base = make_spec()
        assert base.content_hash() != make_spec(seeds=(0, 2)).content_hash()
        assert base.content_hash() != make_spec(window=50.0).content_hash()
        assert base.content_hash() != make_spec(horizon=2000.0).content_hash()

    def test_unserializable_kwargs_rejected(self):
        with pytest.raises(TypeError):
            ScenarioRef.make("nominal", {"bad": object()})


# Literal pins generated at the commit before the override axes were
# folded into one table: SPEC_FORMAT stays 7 and a cache written by
# that commit must replay as 100 % hits.
def pinned_spec(**overrides):
    return ExperimentSpec(
        name="pin",
        algorithms=(AlgorithmRef("alg1", "alg1"), AlgorithmRef("two", "alg2")),
        scenarios=(
            ScenarioRef.make("nominal", {"n": 3, "horizon": 1500.0}),
            ScenarioRef.make("nominal-emulated", {"n": 3, "horizon": 1500.0}),
        ),
        seeds=(0, 1),
        **overrides,
    )


class TestOverrideAxes:
    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "8461ff2335559422"),
            ({"memory": "emulated"}, "83dc0bd17ca498ac"),
            ({"consistency": "atomic"}, "e050691bc23e06c7"),
            ({"membership": "churn"}, "c38c33534e11f2c5"),
            (
                {"memory": "emulated", "consistency": "atomic", "membership": "churn"},
                "4977436f498bcb7a",
            ),
        ],
    )
    def test_content_hash_pinned(self, overrides, digest):
        assert pinned_spec(**overrides).content_hash() == digest

    def test_payload_pinned(self):
        spec = pinned_spec(memory="shared", consistency="regular", membership="none")
        payload = spec.to_payload()
        assert payload == {
            "format": 7,
            "name": "pin",
            "algorithms": [
                {"label": "alg1", "target": "alg1"},
                {"label": "two", "target": "alg2"},
            ],
            "scenarios": [
                {"factory": "nominal", "kwargs": {"horizon": 1500.0, "n": 3}},
                {"factory": "nominal-emulated", "kwargs": {"horizon": 1500.0, "n": 3}},
            ],
            "seeds": [0, 1],
            "window": 100.0,
            "fast": True,
            "memory": "shared",
            "consistency": "regular",
            "membership": "none",
        }
        assert list(payload)[-3:] == ["memory", "consistency", "membership"]
        assert pinned_spec().to_payload()["membership"] is None

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("memory", r"unknown memory backend 'bogus'; choose from \['emulated', 'shared'\]"),
            ("consistency", r"unknown consistency level 'bogus'; choose from \['regular', 'atomic'\]"),
            ("membership", r"unknown membership mode 'bogus'; choose from \['none', 'churn'\]"),
        ],
    )
    def test_unknown_value_rejected(self, axis, message):
        with pytest.raises(ValueError, match=message):
            pinned_spec(**{axis: "bogus"})

    def test_shared_cell_drops_the_emulated_only_axes(self):
        from repro.engine.driver import run_experiment

        def rows(**overrides):
            spec = ExperimentSpec(
                name="drop",
                algorithms=(AlgorithmRef("alg1", "alg1"),),
                scenarios=(
                    ScenarioRef.make("nominal", {"n": 3, "horizon": 1500.0}),
                    ScenarioRef.make("nominal-emulated", {"n": 3, "horizon": 1500.0}),
                ),
                seeds=(0,),
                **overrides,
            )
            return run_experiment(spec, jobs=1, cache=False).rows

        plain_shared, plain_emulated = rows()
        shared, emulated = rows(consistency="atomic", membership="churn")
        assert shared.canonical_json() == plain_shared.canonical_json()
        assert shared.memory_backend == "shared" and shared.configs_installed == 0
        assert emulated.consistency == "atomic" and emulated.configs_installed == 2
        assert plain_emulated.consistency == "regular" and plain_emulated.configs_installed == 0
