"""Decorator-based scenario registry.

Scenario families register themselves as data (a :class:`ScenarioSpec`)
under a unique name, either directly::

    register(ScenarioSpec(name="cluster.policy-panel", ...))

or through the :func:`scenario` decorator on a zero-argument builder::

    @scenario
    def cluster_policy_panel() -> ScenarioSpec:
        return ScenarioSpec(name="cluster.policy-panel", ...)

The registry is what makes scenario diversity enumerable: the CLI
(``python -m repro.scenarios``), the CI smoke job, the determinism tests and
the golden suite all iterate :func:`names` / :func:`all_specs` instead of
maintaining hand-written lists, so an unregistered scenario cannot exist and
a broken one fails every consumer at once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.scenarios.spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


class ScenarioCollisionError(ValueError):
    """Two scenarios tried to register under the same name."""


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate and register ``spec``; raises on name collisions."""

    spec.validate()
    if spec.name in _REGISTRY:
        raise ScenarioCollisionError(
            f"scenario {spec.name!r} is already registered; "
            "pick a unique name or unregister the existing one first"
        )
    _REGISTRY[spec.name] = spec
    return spec


def scenario(builder: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Decorator registering the spec returned by a zero-argument builder."""

    register(builder())
    return builder


def unregister(name: str) -> None:
    """Remove a scenario (primarily for tests composing temporary registries)."""

    _REGISTRY.pop(name, None)


def get(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {names()}"
        ) from None


def names(tag: Optional[str] = None) -> List[str]:
    """Sorted registered names, optionally filtered by tag."""

    if tag is None:
        return sorted(_REGISTRY)
    return sorted(name for name, spec in _REGISTRY.items() if tag in spec.tags)


def all_specs(tag: Optional[str] = None) -> List[ScenarioSpec]:
    return [_REGISTRY[name] for name in names(tag)]


def resolve(requested: Optional[Iterable[str]] = None) -> List[ScenarioSpec]:
    """Resolve a list of names (None = every registered scenario)."""

    if requested is None:
        return all_specs()
    return [get(name) for name in requested]
