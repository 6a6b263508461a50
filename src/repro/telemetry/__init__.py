"""Streaming telemetry: online metrics, anomaly detection, job rollups.

The batch pipeline (:mod:`repro.analysis`) answers questions *after* a
campaign; this package answers them *during* one.  See
``docs/TELEMETRY.md`` for the architecture and the ``sp2-ops`` CLI
(:mod:`repro.ops_cli`) for the operator view.
"""

from repro.telemetry.bus import (
    TOPIC_JOB_END,
    TOPIC_JOB_START,
    TOPIC_NODE_DOWN,
    TOPIC_NODE_UP,
    TOPIC_SAMPLE,
    EventBus,
    JobEnded,
    JobStarted,
    NodeStateChanged,
    SampleTaken,
)
from repro.telemetry.rollup import JobRollup, RollupTable
from repro.telemetry.rules import (
    Alert,
    AnomalyEngine,
    FpuImbalanceRule,
    NodeGapRule,
    Observation,
    PagingRule,
    Rule,
    TlbSpikeRule,
    default_rules,
    render_alert,
    render_alerts,
)
from repro.telemetry.service import METRIC_CATALOG, TelemetryService
from repro.telemetry.sketch import P2Quantile, QuantileSet
from repro.telemetry.store import (
    MetricSeries,
    MetricStore,
    MetricSummary,
    SeriesSnapshot,
)

__all__ = [
    "Alert",
    "AnomalyEngine",
    "EventBus",
    "FpuImbalanceRule",
    "JobEnded",
    "JobRollup",
    "JobStarted",
    "METRIC_CATALOG",
    "MetricSeries",
    "MetricStore",
    "MetricSummary",
    "NodeGapRule",
    "NodeStateChanged",
    "Observation",
    "P2Quantile",
    "PagingRule",
    "QuantileSet",
    "RollupTable",
    "Rule",
    "SampleTaken",
    "SeriesSnapshot",
    "TelemetryService",
    "TlbSpikeRule",
    "TOPIC_JOB_END",
    "TOPIC_JOB_START",
    "TOPIC_NODE_DOWN",
    "TOPIC_NODE_UP",
    "TOPIC_SAMPLE",
    "default_rules",
    "render_alert",
    "render_alerts",
]
