"""Registry: the two ways a policy runs, each with its own name table.

* **Queue policies** drive the event runtime (single cluster, centralized
  grid, decentralized exchange): at every scheduling point they pick which
  waiting jobs start.  :func:`make_policy` builds one by name::

      make_policy("backfill")                       # a BackfillPolicy
      make_policy("fifo", allocator=allocator)      # custom moldable allocation
      make_policy(existing_policy_instance)         # passed through unchanged

* **Off-line schedulers** build a whole :class:`~repro.core.schedule.Schedule`
  from a job set (MRT, SMART shelves, the bi-criteria batches, the batch
  transform, the section-5.1 mixes, ...).  :data:`OFFLINE_SCHEDULERS` maps
  the ``policy.kind`` of an ``offline`` scenario to a factory of its
  ``policy.params``::

      make_offline_scheduler("bicriteria", {"mrt_inner": True})
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Type, Union

from repro.core.policies.backfilling import ConservativeBackfilling, EasyBackfilling
from repro.core.policies.base import MoldableAllocator
from repro.core.policies.batch_online import BatchOnlineScheduler
from repro.core.policies.bicriteria import BiCriteriaScheduler
from repro.core.policies.list_scheduling import ListScheduler
from repro.core.policies.mrt import MRTScheduler
from repro.core.policies.online import (
    BackfillPolicy,
    FifoPolicy,
    SchedulingPolicy,
    SmallestFirstPolicy,
)
from repro.core.policies.rigid_moldable_mix import MixedScheduler
from repro.core.policies.shelf import SmartShelfScheduler

# -- queue policies (the event runtime) ---------------------------------------

QUEUE_POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    "fifo": FifoPolicy,
    "backfill": BackfillPolicy,
    "smallest-first": SmallestFirstPolicy,
}


def policy_names() -> List[str]:
    """Sorted names of the queue policies."""

    return sorted(QUEUE_POLICIES)


def make_policy(
    spec: Union[str, SchedulingPolicy],
    *,
    allocator: Optional[MoldableAllocator] = None,
) -> SchedulingPolicy:
    """Build a queue policy from its name (instances pass through).

    ``allocator`` overrides the moldable->rigid allocation strategy.
    """

    if isinstance(spec, SchedulingPolicy):
        if allocator is not None:
            raise ValueError(
                "make_policy: an allocator override cannot be applied to an "
                "already-constructed policy instance; pass a policy name, or "
                "configure the instance directly"
            )
        return spec
    try:
        policy_class = QUEUE_POLICIES[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown scheduling policy {spec!r}; known: {policy_names()}"
        ) from None
    return policy_class(allocator)


#: A policy argument: a queue-policy name or a ready policy instance.
PolicySpec = Union[str, SchedulingPolicy]


def resolve_cluster_policies(
    grid,
    policy: Union[PolicySpec, Mapping[str, PolicySpec]],
    allocator: Optional[MoldableAllocator] = None,
    *,
    default: PolicySpec = "fifo",
) -> Dict[str, SchedulingPolicy]:
    """One policy instance per cluster from a shared spec or a per-cluster map.

    ``grid`` is any iterable of clusters exposing ``name`` plus a
    ``cluster_names`` attribute (a :class:`repro.platform.grid.LightGrid`).
    Clusters missing from a partial mapping fall back to ``default`` -- the
    calling simulator passes its own documented default policy.

    A shared *name* builds one instance per cluster.  An explicit
    :class:`SchedulingPolicy` *instance* is shared verbatim, like the legacy
    simulators did.
    """

    if isinstance(policy, Mapping):
        unknown = [name for name in policy if name not in grid.cluster_names]
        if unknown:
            raise ValueError(f"policies reference unknown clusters: {unknown}")
        return {
            cluster.name: make_policy(policy.get(cluster.name, default),
                                      allocator=allocator)
            for cluster in grid
        }
    return {
        cluster.name: make_policy(policy, allocator=allocator) for cluster in grid
    }


# -- off-line schedulers (the ``offline`` scenario model) ---------------------

OFFLINE_SCHEDULERS: Dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "lpt": lambda params: ListScheduler("lpt"),
    "wspt": lambda params: ListScheduler("wspt"),
    "smart-shelves": lambda params: SmartShelfScheduler(),
    "mrt": lambda params: MRTScheduler(),
    "bicriteria": lambda params: BiCriteriaScheduler(
        MRTScheduler() if params.get("mrt_inner") else None
    ),
    "batch-mrt": lambda params: BatchOnlineScheduler(MRTScheduler()),
    "conservative-bf": lambda params: ConservativeBackfilling(),
    "easy-bf": lambda params: EasyBackfilling(),
    "mixed": lambda params: MixedScheduler(params.get("strategy", "first_fit_batch")),
}


#: The off-line kinds that honour ``job.release_date`` -- exactly the
#: :class:`~repro.core.policies.base.ReleaseDateScheduler` s.  The others
#: (``lpt``, ``wspt``, ``smart-shelves``, ``mrt``) treat every job as
#: available at time 0 and start jobs before they arrive.
RELEASE_AWARE_OFFLINE_KINDS = ("batch-mrt", "bicriteria", "conservative-bf", "easy-bf", "mixed")


def make_offline_scheduler(kind: str, params: Mapping[str, Any]) -> Any:
    """Build the off-line scheduler named ``kind`` (``default``: bi-criteria)."""

    try:
        factory = OFFLINE_SCHEDULERS["bicriteria" if kind == "default" else kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown offline scheduler {kind!r}; known: {sorted(OFFLINE_SCHEDULERS)}"
        ) from None
    return factory(params)
