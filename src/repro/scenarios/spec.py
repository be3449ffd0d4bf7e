"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a pure-data description of one simulation
scenario: which workload to generate, how jobs arrive, which platform they
run on, which policy schedules them, which metrics to report, and which
parameter axes to sweep.  Specs are plain dataclasses of JSON/TOML-friendly
values, so they

* round-trip through ``dict`` and TOML (:meth:`ScenarioSpec.to_dict` /
  :meth:`from_dict`, :meth:`to_toml` / :meth:`from_toml`),
* pickle cleanly into the worker processes of the parallel sweep harness,
* and can be diffed, stored and generated as data.

The *meaning* of a spec -- how a ``workload`` kind becomes jobs, a
``platform`` kind becomes a cluster or grid, a ``policy`` kind becomes a
scheduler -- lives in :mod:`repro.scenarios.composer`; this module only
checks structure (names, sections, sweep axes), so a spec can be authored
and validated without importing any simulation code.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

#: Simulation models a spec can target (the composer owns one runner each).
MODELS = (
    "offline",            # schedule-constructing policies on a static job set
    "cluster-online",     # event-driven single-cluster simulation
    "grid-centralized",   # best-effort central server on a light grid
    "grid-decentralized", # load-threshold work exchange between clusters
    "figure2",            # the paper's Figure-2 bi-criteria experiment
    "dlt",                # divisible-load multi-round distribution
)

#: Sections a sweep axis / smoke override may address (``section.param``).
SECTIONS = ("workload", "arrival", "platform", "policy")

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


class SpecError(ValueError):
    """A scenario spec is structurally invalid."""


@dataclass
class ComponentSpec:
    """One building block of a scenario: a ``kind`` plus free-form params.

    The admissible kinds and their parameters are defined by the composer
    (:data:`repro.scenarios.composer.WORKLOAD_KINDS` and friends); the spec
    layer treats them as opaque data.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        out.update(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, section: str) -> "ComponentSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"section {section!r} must be a mapping, got {type(data).__name__}")
        if "kind" not in data:
            raise SpecError(f"section {section!r} is missing the 'kind' key")
        params = {k: _plain(v) for k, v in data.items() if k != "kind"}
        kind = data["kind"]
        if not isinstance(kind, str) or not kind:
            raise SpecError(f"section {section!r}: 'kind' must be a non-empty string")
        return cls(kind=kind, params=params)


def _plain(value: Any) -> Any:
    """Normalise tuples to lists so dict round-trips compare equal."""

    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass
class ScenarioSpec:
    """Complete declarative description of one scenario family."""

    name: str
    model: str
    workload: ComponentSpec
    platform: ComponentSpec
    policy: ComponentSpec = field(default_factory=lambda: ComponentSpec("default"))
    arrival: ComponentSpec = field(default_factory=lambda: ComponentSpec("inherit"))
    description: str = ""
    tags: Tuple[str, ...] = ()
    #: Metric columns kept in the result rows (empty = keep everything the
    #: runner produces).
    metrics: Tuple[str, ...] = ()
    #: Seeded repetitions per sweep cell (harness semantics: seeds are
    #: ``seed + repetition``).
    repetitions: int = 3
    seed: int = 1234
    #: Sweep axes: ``"section.param"`` (or ``"section.kind"``) -> values.
    sweep: Dict[str, List[Any]] = field(default_factory=dict)
    #: Smoke-tier overrides: may replace ``repetitions``, the whole
    #: ``sweep``, or individual ``section.param`` values -- used by CI to
    #: run every scenario at tiny sizes.
    smoke: Dict[str, Any] = field(default_factory=dict)

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        if not isinstance(self.name, str) or not _NAME_RE.fullmatch(self.name):
            raise SpecError(
                f"invalid scenario name {self.name!r}: use lowercase letters, "
                "digits, '.', '_' and '-', starting with a letter or digit"
            )
        if self.model not in MODELS:
            raise SpecError(f"unknown model {self.model!r}; known: {MODELS}")
        if not isinstance(self.description, str):
            raise SpecError("description must be a string")
        _check_int(self.seed, "seed")
        _check_int(self.repetitions, "repetitions")
        if self.repetitions < 1:
            raise SpecError("repetitions must be >= 1")
        for field_name in ("tags", "metrics"):
            values = getattr(self, field_name)
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(value, str) for value in values
            ):
                raise SpecError(f"{field_name} must be a list of strings, got {values!r}")
        for axis, values in self.sweep.items():
            _check_override_path(axis, context="sweep axis")
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise SpecError(f"sweep axis {axis!r} must map to a non-empty list")
        for key in self.smoke:
            if key in ("repetitions", "sweep"):
                continue
            _check_override_path(key, context="smoke override")
        if "repetitions" in self.smoke:
            _check_int(self.smoke["repetitions"], "smoke repetitions")
            if self.smoke["repetitions"] < 1:
                raise SpecError("smoke repetitions must be >= 1")
        if "sweep" in self.smoke:
            smoke_sweep = self.smoke["sweep"]
            if not isinstance(smoke_sweep, Mapping):
                raise SpecError("smoke 'sweep' must be a mapping of axis -> values")
            for axis, values in smoke_sweep.items():
                _check_override_path(axis, context="smoke sweep axis")
                if not isinstance(values, (list, tuple)) or len(values) == 0:
                    raise SpecError(f"smoke sweep axis {axis!r} must map to a non-empty list")
        for metric in self.metrics:
            if not isinstance(metric, str) or not metric:
                raise SpecError("metrics must be non-empty strings")
        return self

    # -- derivation ---------------------------------------------------------

    def evolve(self, **changes: Any) -> "ScenarioSpec":
        """A copy with top-level fields replaced (sweep/seed/repetitions...)."""

        spec = dataclasses.replace(_copy_spec(self), **changes)
        return spec.validate()

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with ``section.param`` (and ``section.kind``) values set.

        This is how sweep-axis values and smoke overrides are folded into a
        concrete spec before a cell runs.
        """

        spec = _copy_spec(self)
        for path, value in overrides.items():
            section, param = _check_override_path(path, context="override")
            component: ComponentSpec = getattr(spec, section)
            if param == "kind":
                component.kind = value
            else:
                component.params[param] = _plain(value)
        return spec

    def smoke_spec(self) -> "ScenarioSpec":
        """The smoke-tier variant: tiny sizes, few repetitions, short sweep."""

        overrides = dict(self.smoke)
        repetitions = overrides.pop("repetitions", 1)
        sweep = overrides.pop("sweep", None)
        spec = self.with_overrides(overrides)
        spec.repetitions = repetitions
        if sweep is not None:
            spec.sweep = {axis: list(values) for axis, values in sweep.items()}
        return spec.validate()

    # -- dict round trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "model": self.model,
            "description": self.description,
            "tags": list(self.tags),
            "metrics": list(self.metrics),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "workload": self.workload.to_dict(),
            "arrival": self.arrival.to_dict(),
            "platform": self.platform.to_dict(),
            "policy": self.policy.to_dict(),
            "sweep": {axis: _plain(list(values)) for axis, values in self.sweep.items()},
            "smoke": _plain(dict(self.smoke)),
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        known = {
            "name", "model", "description", "tags", "metrics", "repetitions",
            "seed", "workload", "arrival", "platform", "policy", "sweep", "smoke",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown spec keys: {unknown}; known: {sorted(known)}")
        for required in ("name", "model", "workload", "platform"):
            if required not in data:
                raise SpecError(f"spec is missing required key {required!r}")
        sweep_raw = data.get("sweep", {})
        if not isinstance(sweep_raw, Mapping):
            raise SpecError("'sweep' must be a mapping of axis -> values")
        smoke_raw = data.get("smoke", {})
        if not isinstance(smoke_raw, Mapping):
            raise SpecError("'smoke' must be a mapping")
        # No coercion: int("7") or tuple("paper") would turn a malformed
        # value into a wrong one; validate() rejects it with a SpecError.
        spec = cls(
            name=data["name"],
            model=data["model"],
            description=data.get("description", ""),
            tags=_as_tuple(data.get("tags", ())),
            metrics=_as_tuple(data.get("metrics", ())),
            repetitions=data.get("repetitions", 3),
            seed=data.get("seed", 1234),
            workload=ComponentSpec.from_dict(data["workload"], section="workload"),
            arrival=ComponentSpec.from_dict(data.get("arrival", {"kind": "inherit"}), section="arrival"),
            platform=ComponentSpec.from_dict(data["platform"], section="platform"),
            policy=ComponentSpec.from_dict(data.get("policy", {"kind": "default"}), section="policy"),
            sweep={axis: _plain(values) for axis, values in sweep_raw.items()},
            smoke=_plain(dict(smoke_raw)),
        )
        return spec.validate()

    # -- TOML round trip ----------------------------------------------------

    def to_toml(self) -> str:
        """Serialise to TOML (parse back with :meth:`from_toml`)."""

        data = self.to_dict()
        lines: List[str] = []
        for key in ("name", "model", "description"):
            lines.append(f"{_toml_key(key)} = {_toml_value(data[key])}")
        for key in ("tags", "metrics", "repetitions", "seed"):
            lines.append(f"{_toml_key(key)} = {_toml_value(data[key])}")
        for section in ("workload", "arrival", "platform", "policy"):
            lines.append("")
            lines.append(f"[{section}]")
            lines.extend(_toml_table(data[section]))
        if data["sweep"]:
            lines.append("")
            lines.append("[sweep]")
            lines.extend(_toml_table(data["sweep"]))
        if data["smoke"]:
            lines.append("")
            lines.append("[smoke]")
            lines.extend(_toml_table(data["smoke"]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise SpecError(f"invalid scenario TOML: {error}") from None
        return cls.from_dict(data)


def _as_tuple(value: Any) -> Any:
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _check_int(value: Any, what: str) -> None:
    # bool is an int subclass, but ``seed = true`` is a typo, not a seed.
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{what} must be an integer, got {value!r}")


def _copy_spec(spec: ScenarioSpec) -> ScenarioSpec:
    return ScenarioSpec.from_dict(spec.to_dict())


def _check_override_path(path: str, *, context: str) -> Tuple[str, str]:
    if not isinstance(path, str) or "." not in path:
        raise SpecError(
            f"{context} {path!r} must be of the form 'section.param' "
            f"with section in {SECTIONS}"
        )
    section, param = path.split(".", 1)
    if section not in SECTIONS:
        raise SpecError(
            f"{context} {path!r} addresses unknown section {section!r}; "
            f"known sections: {SECTIONS}"
        )
    if not param:
        raise SpecError(f"{context} {path!r} has an empty parameter name")
    return section, param


# ---------------------------------------------------------------------------
# Minimal TOML emitter (tomllib only parses; keep output within the subset
# tomllib understands: strings, ints, floats, bools, arrays, inline tables).
# ---------------------------------------------------------------------------

_BARE_KEY_RE = re.compile(r"^[A-Za-z0-9_-]+$")


#: Characters a TOML basic string must escape: the quote, the backslash and
#: every control character but tab.
_TOML_ESCAPE_RE = re.compile(r'["\\\x00-\x08\x0a-\x1f\x7f]')
_TOML_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\n": "\\n", "\f": "\\f", "\r": "\\r"}


def _toml_string(text: str) -> str:
    escaped = _TOML_ESCAPE_RE.sub(
        lambda m: _TOML_SHORT_ESCAPES.get(m.group(), f"\\u{ord(m.group()):04x}"), text
    )
    return f'"{escaped}"'


def _toml_key(key: str) -> str:
    if not isinstance(key, str):
        raise SpecError(f"cannot serialise non-string key {key!r} to TOML")
    if _BARE_KEY_RE.fullmatch(key):
        return key
    return _toml_string(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError("non-finite floats cannot be serialised to TOML")
        return repr(value)
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, Mapping):
        inner = ", ".join(f"{_toml_key(k)} = {_toml_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise SpecError(f"cannot serialise {type(value).__name__} value {value!r} to TOML")


def _toml_table(table: Mapping[str, Any]) -> List[str]:
    return [f"{_toml_key(key)} = {_toml_value(value)}" for key, value in table.items()]
