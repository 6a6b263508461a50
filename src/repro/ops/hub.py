"""The shared online metric store behind the ops service.

A :class:`CampaignHub` holds the live state of *many* campaigns at once
— serial or sharded studies, and fleets — each as one or more
:class:`~repro.telemetry.service.TelemetryService` instances fed from
tapped bus events (:mod:`repro.ops.ingest`).  Everything the query API
serves comes out of the hub:

* **bounded memory** — each hub store holds the fixed metric catalog
  in rings of the hub's capacity (:mod:`repro.telemetry.store`), and
  the hub itself holds at most ``max_campaigns`` campaigns, evicting
  the oldest *finished* one when a new registration would overflow (a
  running campaign is never evicted; registration fails instead);
* **snapshot isolation** — every read path hands out immutable
  :class:`~repro.telemetry.store.SeriesSnapshot` views, so a query
  handler that awaits mid-computation still reports one consistent
  instant;
* **federation** — fleet campaigns expose the merged namespace of
  :mod:`repro.ops.federate`: ``fleet.<member>.<metric>`` per member
  plus ``fleet.<metric>`` rollups.

The hub is deliberately synchronous and single-threaded: all mutation
happens on the event loop thread (the ingest layer marshals events from
campaign worker threads), which is what makes the isolation story
simple and ``hub state == the campaign's own service`` testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ops.federate import (
    FLEET_PREFIX,
    federate_series,
    federated_names,
    parse_fleet_metric,
)
from repro.ops.report import job_critical_path, render_performance_report
from repro.telemetry.bus import TOPIC_SPAN
from repro.telemetry.rules import Alert
from repro.telemetry.service import TelemetryService
from repro.telemetry.store import MetricStore, SeriesSnapshot
from repro.tracing.span import CAT_JOB, CAT_JOB_PHASE, CAT_JOB_STATE

#: Span categories retained for per-job report attribution; everything
#: else (collector passes, sim events, switch/fs detail) is dropped at
#: the door so hub memory scales with jobs, not with simulator events.
JOB_SPAN_CATEGORIES = frozenset({CAT_JOB, CAT_JOB_STATE, CAT_JOB_PHASE})

#: Default cap on concurrently held campaigns.
DEFAULT_MAX_CAMPAIGNS = 8


class HubError(Exception):
    """Base class; the server maps subclasses onto protocol errors."""


class UnknownCampaign(HubError):
    pass


class UnknownMetric(HubError):
    pass


class UnknownJob(HubError):
    pass


class HubFull(HubError):
    pass


#: Listener signature: ``(campaign, member, alert)``; member is None for
#: single-machine campaigns.
AlertListener = Callable[[str, "str | None", Alert], None]


@dataclass
class CampaignHandle:
    """One campaign's live state inside the hub."""

    name: str
    kind: str  # "single" | "fleet"
    #: Fleet member names; empty for single-machine campaigns.
    members: tuple[str, ...]
    #: Telemetry per member (key None = the single-machine service).
    services: dict[str | None, TelemetryService]
    #: Per-member node counts (federation weights for per-node rates).
    node_weights: dict[str, int] = field(default_factory=dict)
    #: Job-category spans per member, for report attribution.
    spans: dict[str | None, list] = field(default_factory=dict)
    #: Feed-order alert log as ``(member, alert)`` pairs.
    alert_log: list[tuple[str | None, Alert]] = field(default_factory=list)
    status: str = "running"
    #: Registration order (the hub's eviction clock).
    seq: int = 0
    events_fed: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    def service(self, member: str | None) -> TelemetryService:
        try:
            return self.services[member]
        except KeyError:
            raise UnknownCampaign(
                f"campaign {self.name!r} has no member {member!r}; "
                f"members: {', '.join(self.members) or '(single)'}"
            ) from None

    def intervals_seen(self) -> int:
        return sum(s.intervals_seen for s in self.services.values())

    def jobs_finished(self) -> int:
        return sum(len(s.rollups) for s in self.services.values())


class CampaignHub:
    """Named campaigns, their telemetry, and the reads the API serves."""

    def __init__(
        self,
        *,
        max_campaigns: int = DEFAULT_MAX_CAMPAIGNS,
        store_capacity: int | None = None,
    ) -> None:
        if max_campaigns <= 0:
            raise ValueError(f"max_campaigns must be positive, got {max_campaigns}")
        self.max_campaigns = max_campaigns
        self.store_capacity = store_capacity
        self._campaigns: dict[str, CampaignHandle] = {}
        self._seq = 0
        #: Campaigns evicted to make room (count; catalog reports it).
        self.campaigns_evicted = 0
        self._listeners: list[AlertListener] = []

    # ------------------------------------------------------------------
    # Registration and lifecycle
    # ------------------------------------------------------------------
    def _new_service(self) -> TelemetryService:
        if self.store_capacity is None:
            return TelemetryService()
        return TelemetryService(store=MetricStore(capacity=self.store_capacity))

    def register(
        self,
        name: str,
        *,
        kind: str = "single",
        members: tuple[str, ...] = (),
        node_weights: dict[str, int] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> CampaignHandle:
        """Create a campaign slot (evicting the oldest finished one if
        the hub is at capacity; raises :class:`HubFull` when every held
        campaign is still running)."""
        if kind not in ("single", "fleet"):
            raise ValueError(f"unknown campaign kind {kind!r}")
        if kind == "fleet" and not members:
            raise ValueError("fleet campaigns need member names")
        if name in self._campaigns:
            raise ValueError(f"campaign {name!r} already registered")
        if len(self._campaigns) >= self.max_campaigns:
            finished = [
                h for h in self._campaigns.values() if h.status == "complete"
            ]
            if not finished:
                raise HubFull(
                    f"hub holds {len(self._campaigns)} running campaigns "
                    f"(max_campaigns={self.max_campaigns})"
                )
            oldest = min(finished, key=lambda h: h.seq)
            del self._campaigns[oldest.name]
            self.campaigns_evicted += 1
        self._seq += 1
        keys: tuple[str | None, ...] = tuple(members) if members else (None,)
        handle = CampaignHandle(
            name=name,
            kind=kind,
            members=tuple(members),
            services={k: self._new_service() for k in keys},
            node_weights=dict(node_weights or {}),
            spans={k: [] for k in keys},
            seq=self._seq,
            meta=dict(meta or {}),
        )
        self._campaigns[name] = handle
        return handle

    def complete(self, name: str, meta: dict[str, Any] | None = None) -> None:
        handle = self.handle(name)
        handle.status = "complete"
        if meta:
            handle.meta.update(meta)

    def handle(self, name: str) -> CampaignHandle:
        try:
            return self._campaigns[name]
        except KeyError:
            raise UnknownCampaign(
                f"unknown campaign {name!r}; have: "
                f"{', '.join(sorted(self._campaigns)) or '(none)'}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._campaigns, key=lambda n: self._campaigns[n].seq)

    def __contains__(self, name: str) -> bool:
        return name in self._campaigns

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------
    def feed(
        self, name: str, topic: str, event: Any, *, member: str | None = None
    ) -> None:
        """Apply one recorded/live bus event to a campaign's telemetry.

        New alerts produced by the event are appended to the campaign's
        feed-order alert log and pushed to every registered listener —
        the server's subscription fan-out.
        """
        handle = self.handle(name)
        service = handle.service(member)
        before = len(service.engine.alerts)
        service.bus.publish(topic, event)
        handle.events_fed += 1
        if topic == TOPIC_SPAN:
            span = event.span
            if getattr(span, "category", None) in JOB_SPAN_CATEGORIES:
                handle.spans[member].append(span)
        new = service.engine.alerts[before:]
        for alert in new:
            handle.alert_log.append((member, alert))
            for listener in list(self._listeners):
                listener(name, member, alert)

    def add_alert_listener(self, listener: AlertListener) -> None:
        self._listeners.append(listener)

    def remove_alert_listener(self, listener: AlertListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Query side (everything returns immutable data)
    # ------------------------------------------------------------------
    def catalog(self) -> dict[str, Any]:
        """JSON-ready overview of everything the hub holds."""
        campaigns = []
        for cname in self.names():
            h = self._campaigns[cname]
            campaigns.append(
                {
                    "name": h.name,
                    "kind": h.kind,
                    "status": h.status,
                    "members": list(h.members),
                    "events_fed": h.events_fed,
                    "intervals_seen": h.intervals_seen(),
                    "jobs_finished": h.jobs_finished(),
                    "alerts_total": len(h.alert_log),
                    "metrics": len(self.metric_names(cname)),
                    "points_dropped": sum(
                        s.store.points_dropped for s in h.services.values()
                    ),
                    "meta": dict(h.meta),
                }
            )
        return {
            "campaigns": campaigns,
            "campaigns_evicted": self.campaigns_evicted,
            "max_campaigns": self.max_campaigns,
        }

    def metric_names(self, name: str) -> list[str]:
        """Every metric name a campaign serves (federated for fleets)."""
        handle = self.handle(name)
        if handle.kind == "single":
            return handle.service(None).store.names()
        metrics = sorted(
            {m for s in handle.services.values() for m in s.store.names()}
        )
        return federated_names(handle.members, metrics)

    def series_snapshot(self, name: str, metric: str) -> SeriesSnapshot:
        """One metric's immutable view, resolving federated names."""
        handle = self.handle(name)
        if handle.kind == "single":
            store = handle.service(None).store
            if metric not in store:
                raise UnknownMetric(
                    f"campaign {name!r} has no metric {metric!r}"
                )
            return store.series(metric).snapshot()
        parsed = parse_fleet_metric(metric, handle.members)
        if parsed is None:
            raise UnknownMetric(
                f"fleet campaign {name!r} serves '{FLEET_PREFIX}…' names, "
                f"not {metric!r} (see the metrics op)"
            )
        member, base = parsed
        if member is not None:
            store = handle.service(member).store
            if base not in store:
                raise UnknownMetric(
                    f"member {member!r} of {name!r} has no metric {base!r}"
                )
            snap = store.series(base).snapshot()
            # Re-label under the federated name so responses are
            # self-describing.
            return SeriesSnapshot(
                name=metric,
                count=snap.count,
                dropped=snap.dropped,
                ewma=snap.ewma,
                min=snap.min,
                max=snap.max,
                quantiles=snap.quantiles,
                times=snap.times,
                values=snap.values,
            )
        per_member = {
            m: (
                handle.service(m).store.series(base).snapshot()
                if base in handle.service(m).store
                else None
            )
            for m in handle.members
        }
        if all(s is None for s in per_member.values()):
            raise UnknownMetric(
                f"no member of {name!r} has a metric {base!r}"
            )
        return federate_series(base, per_member, handle.node_weights)

    def alerts_since(
        self, name: str, cursor: int = 0
    ) -> tuple[list[tuple[str | None, Alert]], int]:
        """Alert log entries from ``cursor`` on, plus the next cursor."""
        log = self.handle(name).alert_log
        start = max(0, int(cursor))
        return list(log[start:]), len(log)

    def job_rollups(self, name: str, *, member: str | None = None) -> list:
        handle = self.handle(name)
        if member is None and handle.kind == "fleet":
            out = []
            for m in handle.members:
                out.extend(
                    (m, r) for r in handle.service(m).rollups.finished
                )
            return out
        return [(member, r) for r in handle.service(member).rollups.finished]

    def job_report(
        self, name: str, job_id: int, *, member: str | None = None
    ) -> str:
        """The rendered performance page for one finished job.

        For fleet campaigns without an explicit member, every member is
        searched (job ids are fleet-unique: members share the routed
        submission stream).
        """
        handle = self.handle(name)
        candidates = (
            [member] if member is not None or handle.kind == "single"
            else list(handle.members)
        )
        for key in candidates:
            service = handle.service(key)
            rollup = service.rollups.get(job_id)
            if rollup is None:
                continue
            path = job_critical_path(handle.spans[key], job_id)
            return render_performance_report(
                rollup,
                service.rollups,
                campaign=name,
                member=key,
                path=path,
            )
        raise UnknownJob(
            f"campaign {name!r} has no finished job {job_id} "
            f"({handle.jobs_finished()} finished)"
        )
