"""Rule-based online anomaly detection.

The paper's central operational lesson (§6) is that a severe pathology —
paging so heavy that *system-mode* FXU counts exceeded user-mode — sat
in nine months of logs before anyone looked.  This engine evaluates that
class of rule on every 15-minute interval as it is measured, so the
operator view (`sp2-ops`) surfaces the pathology the day it starts:

* **paging** — system/user FXU ratio above threshold while the machine
  is actually doing user work (an activity floor keeps idle intervals,
  where a tiny user count inflates the ratio, from false-firing);
* **fpu-imbalance** — FPU0:FPU1 instruction ratio outside the healthy
  band around the §5 measurement of ≈1.7;
* **tlb-spike** — TLB miss rate far above its own EWMA baseline;
* **node-gap** — a node daemon stopped answering the collector (and the
  matching recovery notice).

Every fired alert is deduplicated per ``(rule, key)`` with a cooldown so
a multi-hour paging episode produces a handful of alerts, not hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from repro.hpm.derived import DerivedRates

#: Alert severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


class Observation(NamedTuple):
    """One 15-minute interval as seen by the rules (a named tuple: one is
    built per interval)."""

    time: float
    rates: DerivedRates
    nodes_reporting: int
    #: Node ids unreachable at the sample closing this interval.
    missing: tuple[int, ...] = ()


@dataclass(frozen=True)
class Alert:
    """One fired anomaly.

    ``span_id`` references the tracing span the alert fired inside (the
    15-minute collector pass, when the campaign ran with a tracer) —
    the drill-down handle into the recorded trace.  Excluded from
    equality so online-vs-replay comparisons hold whether or not a
    tracer was attached.
    """

    time: float
    rule: str
    severity: str
    key: str
    message: str
    value: float
    span_id: str | None = field(default=None, compare=False)


class Rule:
    """Base class: subclasses yield ``(key, message, value)`` findings."""

    name: str = "rule"
    severity: str = "warning"
    #: Seconds during which a repeat finding for the same key is deduped.
    cooldown: float = 0.0

    def evaluate(self, obs: Observation) -> Iterator[tuple[str, str, float]]:
        raise NotImplementedError


class PagingRule(Rule):
    """§6's signature: system-mode FXU work rivals user-mode.

    ``min_user_fxu_mips`` is the activity floor — on an idle interval the
    user denominator is tiny and the ratio meaningless, which is exactly
    the trap a naive reading of the paper's ratio would fall into.
    """

    name = "paging"
    severity = "critical"

    def __init__(
        self,
        *,
        ratio_threshold: float = 0.5,
        min_user_fxu_mips: float = 1.0,
        cooldown: float = 2 * 3600.0,
    ) -> None:
        self.ratio_threshold = ratio_threshold
        self.min_user_fxu_mips = min_user_fxu_mips
        self.cooldown = cooldown

    def evaluate(self, obs: Observation) -> Iterator[tuple[str, str, float]]:
        r = obs.rates
        if (
            r.mips_fxu_total >= self.min_user_fxu_mips
            and r.system_user_fxu_ratio > self.ratio_threshold
        ):
            yield (
                "system",
                f"system/user FXU ratio {r.system_user_fxu_ratio:.2f} "
                f"(user FXU {r.mips_fxu_total:.1f} Mips/node) — likely paging",
                r.system_user_fxu_ratio,
            )


class FpuImbalanceRule(Rule):
    """FPU0:FPU1 dispatch ratio outside the healthy band (§5: ≈1.7)."""

    name = "fpu-imbalance"
    severity = "warning"

    def __init__(
        self,
        *,
        low: float = 1.0,
        high: float = 4.0,
        min_fp_mips: float = 0.5,
        cooldown: float = 4 * 3600.0,
    ) -> None:
        self.low = low
        self.high = high
        self.min_fp_mips = min_fp_mips
        self.cooldown = cooldown

    def evaluate(self, obs: Observation) -> Iterator[tuple[str, str, float]]:
        r = obs.rates
        if r.mips_fp_total < self.min_fp_mips or r.mips_fp_unit1 <= 0:
            return
        ratio = r.fpu_ratio
        if not self.low <= ratio <= self.high:
            yield (
                "system",
                f"FPU0:FPU1 ratio {ratio:.2f} outside [{self.low:.1f}, "
                f"{self.high:.1f}] (healthy ≈1.7)",
                ratio,
            )


class TlbSpikeRule(Rule):
    """TLB miss rate far above its own streaming baseline.

    Keeps a private EWMA so the rule is self-contained: the baseline is
    what *this rule* has seen, updated after each evaluation, with a
    warm-up count before it may fire.  Idle intervals (user FXU below
    the activity floor) neither update nor fire — otherwise an overnight
    lull drags the baseline to zero and the morning ramp-up reads as a
    spike.
    """

    name = "tlb-spike"
    severity = "warning"

    def __init__(
        self,
        *,
        factor: float = 3.0,
        floor: float = 0.01,
        min_user_fxu_mips: float = 1.0,
        alpha: float = 0.1,
        warmup: int = 16,
        cooldown: float = 2 * 3600.0,
    ) -> None:
        self.factor = factor
        self.floor = floor
        self.min_user_fxu_mips = min_user_fxu_mips
        self.alpha = alpha
        self.warmup = warmup
        self.cooldown = cooldown
        self._ewma = 0.0
        self._seen = 0

    def evaluate(self, obs: Observation) -> Iterator[tuple[str, str, float]]:
        if obs.rates.mips_fxu_total < self.min_user_fxu_mips:
            return
        rate = obs.rates.tlb_miss_rate
        if (
            self._seen >= self.warmup
            and rate > self.floor
            and rate > self.factor * self._ewma
        ):
            yield (
                "system",
                f"TLB miss rate {rate:.3f} M/s is {rate / max(self._ewma, 1e-12):.1f}× "
                f"the EWMA baseline {self._ewma:.3f}",
                rate,
            )
        self._ewma = rate if self._seen == 0 else (
            self.alpha * rate + (1 - self.alpha) * self._ewma
        )
        self._seen += 1


class NodeGapRule(Rule):
    """Daemon-unreachable gaps: alert on down transitions, note recoveries.

    Transition-based (keeps the previously-missing set), so a week-long
    outage is one alert, not one per sample.
    """

    name = "node-gap"
    severity = "warning"

    def __init__(self, *, cooldown: float = 0.0) -> None:
        self.cooldown = cooldown
        self._down: set[int] = set()

    def evaluate(self, obs: Observation) -> Iterator[tuple[str, str, float]]:
        if not obs.missing and not self._down:
            return  # the common interval: every node answered, and did before
        now_missing = set(obs.missing)
        for node in sorted(now_missing - self._down):
            yield (f"node-{node}", f"node {node} daemon unreachable", float(node))
        for node in sorted(self._down - now_missing):
            yield (f"node-{node}-up", f"node {node} daemon reachable again", float(node))
        self._down = now_missing


def default_rules() -> list[Rule]:
    """The stock rule set — one per paper pathology."""
    return [PagingRule(), FpuImbalanceRule(), TlbSpikeRule(), NodeGapRule()]


@dataclass
class AnomalyEngine:
    """Evaluates rules per observation with (rule, key) dedup/cooldown."""

    rules: list[Rule] = field(default_factory=default_rules)
    alerts: list[Alert] = field(default_factory=list)
    #: Findings swallowed by the cooldown window.
    suppressed: int = 0
    #: Optional span tracer; fired alerts reference its current span.
    tracer: Any = None
    _last_fire: dict[tuple[str, str], float] = field(default_factory=dict)

    def observe(self, obs: Observation) -> list[Alert]:
        """Run every rule; returns (and records) the alerts that fired."""
        span_id = None
        if self.tracer is not None and self.tracer.current is not None:
            span_id = self.tracer.current.span_id
        fired: list[Alert] = []
        for rule in self.rules:
            for key, message, value in rule.evaluate(obs):
                dedup = (rule.name, key)
                last = self._last_fire.get(dedup)
                if last is not None and obs.time - last < rule.cooldown:
                    self.suppressed += 1
                    continue
                self._last_fire[dedup] = obs.time
                alert = Alert(
                    time=obs.time,
                    rule=rule.name,
                    severity=rule.severity,
                    key=key,
                    message=message,
                    value=value,
                    span_id=span_id,
                )
                self.alerts.append(alert)
                fired.append(alert)
        return fired

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for a in self.alerts:
            out[a.rule] = out.get(a.rule, 0) + 1
        return out

    def alerts_for(self, rule: str) -> list[Alert]:
        return [a for a in self.alerts if a.rule == rule]


def render_alert(alert: Alert, *, seconds_per_day: float = 86400.0) -> str:
    """One fixed-width operator line for an alert."""
    day, rem = divmod(alert.time, seconds_per_day)
    hh, mm = divmod(int(rem) // 60, 60)
    span = f"  [span {alert.span_id}]" if alert.span_id else ""
    return (
        f"d{int(day):03d} {hh:02d}:{mm:02d}  {alert.severity:<8s} "
        f"{alert.rule:<14s} {alert.key:<12s} {alert.message}{span}"
    )


def render_alerts(alerts: Iterable[Alert]) -> str:
    lines = [render_alert(a) for a in alerts]
    return "\n".join(lines) if lines else "(no alerts)"
