"""The paper's ratio checks, re-expressed as store validation queries.

:mod:`repro.experiments.ratio_checks` verifies the approximation-ratio
statements of section 4 by generating instances and running the policies;
this module checks the *same bounds* on rows already landed in a campaign
store -- so a production store of millions of cells can be audited with one
pass over its records instead of re-running anything:

* bi-criteria doubling batches: ``cmax_ratio`` and ``wici_ratio`` within
  ``4 * rho = 8`` (section 4.4, rho = 2 for the greedy inner procedure);
* every ratio is measured against a *lower* bound, so it can never drop
  below 1;
* per-cell timings are non-negative (a corrupted ingest would violate it).

Each rule evaluates to a :class:`RuleResult`; the tests cross-check the
worst observed values against
:class:`~repro.metrics.aggregate.StreamingAggregator` and the stated bounds
of :mod:`repro.experiments.ratio_checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.store.columnar import CampaignStore
from repro.store.queries import QueryError, _numeric

#: Stated bound of the bi-criteria scheduler on both criteria: 4 * rho with
#: rho = 2 for the greedy moldable inner procedure (paper section 4.4) --
#: the same constant ratio_checks.check_bicriteria_ratio() reports.
BICRITERIA_RHO = 2.0
BICRITERIA_BOUND = 4 * BICRITERIA_RHO

#: Ratios are measured against lower bounds, hence >= 1 up to float noise.
RATIO_FLOOR = 1.0
TOLERANCE = 1e-9


@dataclass(frozen=True)
class ValidationRule:
    """One bound on one metric column of the stored rows."""

    name: str
    description: str
    metric: str
    upper: Optional[float] = None
    lower: Optional[float] = None
    #: The metric lives in the record meta columns, not the result row.
    meta: bool = False

    def _violates(self, value: float) -> bool:
        if self.upper is not None and value > self.upper + TOLERANCE:
            return True
        if self.lower is not None and value < self.lower - TOLERANCE:
            return True
        return False

    def check(self, records: List[Dict[str, Any]]) -> "RuleResult":
        values: List[float] = []
        for record in records:
            source = record if self.meta else json.loads(record["row_json"])
            value = _numeric(source.get(self.metric))
            if value is not None:
                values.append(value)
        violations = sum(1 for value in values if self._violates(value))
        return RuleResult(
            rule=self,
            checked=len(values),
            violations=violations,
            worst_high=max(values) if values else None,
            worst_low=min(values) if values else None,
        )


@dataclass(frozen=True)
class RuleResult:
    rule: ValidationRule
    checked: int
    violations: int
    worst_high: Optional[float]
    worst_low: Optional[float]

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def skipped(self) -> bool:
        """No stored row carries this metric (vacuously true, reported as such)."""

        return self.checked == 0

    def describe(self) -> str:
        rule = self.rule
        bounds = []
        if rule.lower is not None:
            bounds.append(f">= {rule.lower:g}")
        if rule.upper is not None:
            bounds.append(f"<= {rule.upper:g}")
        bound_text = " and ".join(bounds)
        if self.skipped:
            return f"skip {rule.name}: no rows carry {rule.metric!r}"
        status = "ok  " if self.ok else "FAIL"
        observed = (
            f"observed [{self.worst_low:.6g}, {self.worst_high:.6g}]"
            if self.worst_low is not None
            else "no values"
        )
        return (
            f"{status} {rule.name}: {rule.metric} {bound_text} over "
            f"{self.checked} row(s), {observed}"
            + ("" if self.ok else f", {self.violations} violation(s)")
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "lower": self.rule.lower,
            "upper": self.rule.upper,
            "checked": self.checked,
            "violations": self.violations,
            "worst_high": self.worst_high,
            "worst_low": self.worst_low,
            "ok": self.ok,
            "skipped": self.skipped,
        }


RULES: Tuple[ValidationRule, ...] = (
    ValidationRule(
        name="bicriteria-cmax-within-4rho",
        description="figure-2 makespan ratio stays within the stated 4*rho bound",
        metric="cmax_ratio", upper=BICRITERIA_BOUND, lower=RATIO_FLOOR,
    ),
    ValidationRule(
        name="bicriteria-wici-within-4rho",
        description="figure-2 weighted-completion ratio stays within 4*rho",
        metric="wici_ratio", upper=BICRITERIA_BOUND, lower=RATIO_FLOOR,
    ),
    ValidationRule(
        name="makespan-ratio-floor",
        description="makespan measured against a lower bound cannot beat it",
        metric="makespan_ratio", lower=RATIO_FLOOR,
    ),
    ValidationRule(
        name="weighted-completion-ratio-floor",
        description="weighted completion measured against a lower bound cannot beat it",
        metric="weighted_completion_ratio", lower=RATIO_FLOOR,
    ),
    ValidationRule(
        name="elapsed-nonnegative",
        description="per-cell wall-clock times are non-negative",
        metric="elapsed_seconds", lower=0.0, meta=True,
    ),
)


def validate_store(
    store: CampaignStore, *, engine: str = "py", rules: Tuple[ValidationRule, ...] = RULES
) -> List[RuleResult]:
    """Evaluate every rule; ``engine`` as in :func:`repro.store.queries.run_query`."""

    if engine != "py":
        raise QueryError(f"unknown engine {engine!r}; the only query engine is 'py'")
    records = store.records()
    return [rule.check(records) for rule in rules]
