"""Steady-state (asymptotic) throughput of divisible / multi-parametric loads.

Section 3 lists "maximum throughput (or steady state)" among the criteria:
"the maximum number of elementary tasks to execute in a given amount of time
or for asymptotically long times.  It is well-suited for some types of jobs
like parametric computations", and section 5.2 adds that "for this kind of
jobs, the theory of asymptotic behavior shows that optimal solutions can be
computed in polynomial time".

For a one-port master and independent workers the optimal steady-state
throughput has the classical *bandwidth-centric* closed form: give priority
to the workers with the fastest links, each worker ``i`` can absorb at most
``1 / w_i`` load units per time unit, and the master port can ship at most
``1`` message-second per second, i.e. ``sum_i rho_i * z_i <= 1``.  The greedy
solution (serve workers by increasing ``z_i`` until the port saturates) is
optimal.  When every ``z_i`` is zero the port never saturates and the
throughput is simply the sum of the compute rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.dlt.platform import DLTPlatform


@dataclass(frozen=True)
class SteadyStateSolution:
    """Optimal steady-state rates per worker."""

    throughput: float
    rates: Dict[str, float]
    port_usage: float
    saturated: bool

    def rate_of(self, worker_name: str) -> float:
        return self.rates.get(worker_name, 0.0)


def steady_state_throughput(platform: DLTPlatform) -> SteadyStateSolution:
    """Optimal steady-state throughput (load units per time unit).

    Greedy bandwidth-centric allocation: workers are served by increasing
    communication time; each receives the rate it can compute
    (``1 / compute_time``) as long as the master port (``sum rho_i z_i <= 1``)
    allows it; the first worker that would overflow the port gets the
    remaining port capacity and every later worker gets nothing.
    """

    workers = sorted(platform.workers, key=lambda w: (w.comm_time, w.compute_time, w.name))
    rates: Dict[str, float] = {w.name: 0.0 for w in platform.workers}
    port = 0.0
    throughput = 0.0
    saturated = False
    for worker in workers:
        desired = worker.compute_rate
        if worker.comm_time <= 0:
            rates[worker.name] = desired
            throughput += desired
            continue
        room = 1.0 - port
        if room <= 1e-15:
            saturated = True
            break
        feasible = min(desired, room / worker.comm_time)
        rates[worker.name] = feasible
        port += feasible * worker.comm_time
        throughput += feasible
        if feasible < desired - 1e-15:
            saturated = True
            break
    return SteadyStateSolution(
        throughput=throughput,
        rates=rates,
        port_usage=port,
        saturated=saturated,
    )


def steady_state_lower_bound_makespan(total_load: float, platform: DLTPlatform) -> float:
    """Asymptotic lower bound on the makespan: load divided by the optimal throughput."""

    if total_load < 0:
        raise ValueError("total_load must be >= 0")
    solution = steady_state_throughput(platform)
    if solution.throughput <= 0:
        raise ValueError("platform has zero throughput")
    return total_load / solution.throughput
