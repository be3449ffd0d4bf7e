"""Parallel-Task scheduling policies (sections 4 and 5.1 of the paper).

Off-line policies (all jobs available at time 0):

* :class:`~repro.core.policies.list_scheduling.ListScheduler` -- classical
  list scheduling of rigid jobs (FCFS / LPT / SPT orders),
* :class:`~repro.core.policies.shelf.ShelfScheduler` -- NFDH/FFDH shelf
  packing of rigid jobs,
* :class:`~repro.core.policies.shelf.SmartShelfScheduler` -- the
  Schwiegelshohn et al. SMART shelves for (weighted) completion time
  (section 4.3, ratios 8 and 8.53),
* :class:`~repro.core.policies.mrt.MRTScheduler` -- the dual-approximation
  two-shelf algorithm for moldable makespan (section 4.1, ratio 3/2 + eps),
* :class:`~repro.core.policies.mrt.GreedyMoldableScheduler` -- a simple
  allocate-then-pack baseline.

On-line policies (jobs have release dates):

* :class:`~repro.core.policies.batch_online.BatchOnlineScheduler` -- the
  Shmoys/Wein/Williamson batch transform (section 4.2, ratio 2 rho),
* :class:`~repro.core.policies.bicriteria.BiCriteriaScheduler` -- the
  doubling-deadline batches of Hall et al. (section 4.4, ratio 4 rho on both
  Cmax and sum w_j C_j); this is the algorithm whose simulation produces
  Figure 2,
* :class:`~repro.core.policies.backfilling.ConservativeBackfilling` and
  :class:`~repro.core.policies.backfilling.EasyBackfilling` -- the
  production-style baselines used by the local cluster schedulers,
* :class:`~repro.core.policies.rigid_moldable_mix.MixedScheduler` -- the
  three strategies of section 5.1 for handling a mix of rigid and moldable
  jobs.

All of the above build whole schedules.  The event runtime
(:mod:`repro.runtime`) is driven instead by the three queue policies of
:mod:`~repro.core.policies.online` (FCFS, backfilling, smallest-first).
:mod:`~repro.core.policies.registry` keeps one name table for each way a
policy runs: :func:`make_policy` builds a queue policy, and
:data:`OFFLINE_SCHEDULERS` the schedule constructors an ``offline``
scenario names.
"""

from repro.core.policies.base import (
    MoldableAllocator,
    OfflineScheduler,
    ReleaseDateScheduler,
    SchedulerError,
)
from repro.core.policies.online import (
    BackfillPolicy,
    FifoPolicy,
    SchedulingPolicy,
    SmallestFirstPolicy,
)
from repro.core.policies.registry import (
    OFFLINE_SCHEDULERS,
    make_offline_scheduler,
    make_policy,
    policy_names,
    resolve_cluster_policies,
)
from repro.core.policies.list_scheduling import ListScheduler
from repro.core.policies.shelf import ShelfScheduler, SmartShelfScheduler
from repro.core.policies.mrt import GreedyMoldableScheduler, MRTScheduler
from repro.core.policies.batch_online import BatchOnlineScheduler
from repro.core.policies.bicriteria import BiCriteriaScheduler
from repro.core.policies.backfilling import ConservativeBackfilling, EasyBackfilling
from repro.core.policies.rigid_moldable_mix import MixedScheduler

__all__ = [
    "OfflineScheduler",
    "ReleaseDateScheduler",
    "MoldableAllocator",
    "SchedulerError",
    "SchedulingPolicy",
    "FifoPolicy",
    "BackfillPolicy",
    "SmallestFirstPolicy",
    "make_policy",
    "policy_names",
    "OFFLINE_SCHEDULERS",
    "make_offline_scheduler",
    "resolve_cluster_policies",
    "ListScheduler",
    "ShelfScheduler",
    "SmartShelfScheduler",
    "MRTScheduler",
    "GreedyMoldableScheduler",
    "BatchOnlineScheduler",
    "BiCriteriaScheduler",
    "ConservativeBackfilling",
    "EasyBackfilling",
    "MixedScheduler",
]
