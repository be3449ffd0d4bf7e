"""Spec layer: dict/TOML round-tripping, validation, overrides."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError


def rich_spec() -> ScenarioSpec:
    """A spec exercising every value shape (nested dicts, lists, bools)."""

    return ScenarioSpec(
        name="test.rich",
        model="cluster-online",
        description='quotes "inside" and backslash \\ survive',
        tags=("a", "b"),
        metrics=("makespan", "mean_stretch"),
        repetitions=2,
        seed=99,
        platform=ComponentSpec("count", {"machine_count": 32}),
        workload=ComponentSpec(
            "moldable",
            {
                "n_jobs": 20,
                "runtime_range": [0.5, 10.0],
                "churn": {"n_outages": 3, "procs": 2},
            },
        ),
        arrival=ComponentSpec("poisson", {"rate": 2.0}),
        policy=ComponentSpec("backfill", {"flag": True}),
        sweep={"policy.kind": ["fifo", "backfill"], "workload.n_jobs": [10, 20]},
        smoke={
            "repetitions": 1,
            "workload.n_jobs": 5,
            "sweep": {"policy.kind": ["backfill"]},
        },
    ).validate()


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = rich_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_toml_round_trip(self):
        spec = rich_spec()
        text = spec.to_toml()
        assert ScenarioSpec.from_toml(text).to_dict() == spec.to_dict()

    def test_toml_is_parseable_by_tomllib(self):
        import tomllib

        data = tomllib.loads(rich_spec().to_toml())
        assert data["name"] == "test.rich"
        assert data["workload"]["churn"] == {"n_outages": 3, "procs": 2}

    def test_every_builtin_round_trips(self):
        from repro.scenarios import all_specs

        for spec in all_specs():
            assert ScenarioSpec.from_toml(spec.to_toml()).to_dict() == spec.to_dict()
            assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_invalid_toml_raises_spec_error(self):
        with pytest.raises(SpecError, match="invalid scenario TOML"):
            ScenarioSpec.from_toml("name = [unclosed")


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        data = rich_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(SpecError, match="unknown spec keys"):
            ScenarioSpec.from_dict(data)

    def test_missing_required_key_rejected(self):
        data = rich_spec().to_dict()
        del data["workload"]
        with pytest.raises(SpecError, match="missing required key"):
            ScenarioSpec.from_dict(data)

    def test_bad_name_rejected(self):
        with pytest.raises(SpecError, match="invalid scenario name"):
            rich_spec().evolve(name="Has Spaces")

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecError, match="unknown model"):
            rich_spec().evolve(model="quantum")

    def test_repetitions_must_be_positive(self):
        with pytest.raises(SpecError, match="repetitions"):
            rich_spec().evolve(repetitions=0)

    def test_sweep_axis_needs_section_prefix(self):
        with pytest.raises(SpecError, match="section.param"):
            rich_spec().evolve(sweep={"n_jobs": [1, 2]})

    def test_sweep_axis_unknown_section(self):
        with pytest.raises(SpecError, match="unknown section"):
            rich_spec().evolve(sweep={"dessert.flavour": ["vanilla"]})

    def test_sweep_axis_needs_values(self):
        with pytest.raises(SpecError, match="non-empty list"):
            rich_spec().evolve(sweep={"policy.kind": []})

    def test_component_needs_kind(self):
        with pytest.raises(SpecError, match="missing the 'kind' key"):
            ComponentSpec.from_dict({"n_jobs": 3}, section="workload")


class TestOverrides:
    def test_with_overrides_sets_params_and_kind(self):
        spec = rich_spec()
        derived = spec.with_overrides({"workload.n_jobs": 7, "policy.kind": "fifo"})
        assert derived.workload.params["n_jobs"] == 7
        assert derived.policy.kind == "fifo"
        # The original spec is untouched (copies all the way down).
        assert spec.workload.params["n_jobs"] == 20
        assert spec.policy.kind == "backfill"

    def test_smoke_spec_applies_all_override_kinds(self):
        smoke = rich_spec().smoke_spec()
        assert smoke.repetitions == 1
        assert smoke.workload.params["n_jobs"] == 5
        assert smoke.sweep == {"policy.kind": ["backfill"]}

    def test_smoke_defaults_to_one_repetition(self):
        spec = rich_spec().evolve(smoke={})
        assert spec.smoke_spec().repetitions == 1

    def test_evolve_validates(self):
        with pytest.raises(SpecError):
            rich_spec().evolve(sweep={"bad": [1]})


class TestBoundary:
    """Malformed values fail with a SpecError, never a bare error or a coercion."""

    @pytest.mark.parametrize("change", [
        {"seed": "abc"},
        {"seed": 1.7},
        {"seed": True},
        {"repetitions": 2.9},
        {"repetitions": [2]},
        {"repetitions": False},
        {"sweep": {"workload.n_jobs": 40}},
        {"sweep": {"workload.n_jobs": "40"}},
        {"smoke": {"sweep": {"workload.n_jobs": "40"}}},
        {"smoke": {"repetitions": "1"}},
        {"smoke": {"repetitions": 0}},
        {"tags": "paper"},
        {"tags": ["paper", 3]},
        {"metrics": "makespan"},
        {"metrics": [["makespan"]]},
        {"name": 5},
        {"name": "test.rich\n"},
        {"description": 3},
    ], ids=repr)
    def test_malformed_value_raises_spec_error(self, change):
        data = rich_spec().to_dict()
        data.update(change)
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_malformed_toml_spec_file_is_a_cli_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        spec_file = tmp_path / "bad.toml"
        spec_file.write_text(rich_spec().to_toml().replace("seed = 99", 'seed = "abc"'))
        assert main(["run", "--spec", str(spec_file)]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_control_characters_survive_toml(self):
        spec = rich_spec().evolve(description="tab\tnewline\ndel\x7fnul\x00", tags=("a\nb",))
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_builtin_spec_fails_at_the_boundary_or_round_trips(data):
    """Replace one field (or one entry of a mapping field) of a builtin
    spec's ``to_dict()`` by an arbitrary value: ``from_dict`` and ``to_toml``
    either raise SpecError, or the spec survives dict and TOML unchanged."""

    from repro.scenarios import all_specs

    raw = data.draw(st.sampled_from(all_specs())).to_dict()
    target = data.draw(st.sampled_from(sorted(raw)))
    value = data.draw(_VALUES)
    if isinstance(raw[target], dict) and raw[target] and data.draw(st.booleans()):
        raw[target][data.draw(st.sampled_from(sorted(raw[target])))] = value
    else:
        raw[target] = value
    try:
        spec = ScenarioSpec.from_dict(raw)
        text = spec.to_toml()
    except SpecError:
        return
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_toml(text) == spec
