"""The long-running operations service (PR 7).

Promotes the one-shot ``sp2-ops`` analyses to a service: a
:class:`~repro.ops.hub.CampaignHub` holds many concurrent campaigns'
online telemetry (bounded memory, snapshot-isolated reads, fleet
federation), :class:`~repro.ops.server.OpsServer` serves it over a
newline-delimited JSON TCP protocol, and :mod:`repro.ops.report`
renders MPCDF-style per-job performance pages from the streamed state.
"""

from repro.ops.client import OpsClient, OpsServiceError
from repro.ops.federate import (
    FLEET_PREFIX,
    SUM_METRICS,
    federate_series,
    federated_names,
    member_metric,
    parse_fleet_metric,
    rollup_metric,
)
from repro.ops.hub import (
    CampaignHandle,
    CampaignHub,
    HubError,
    HubFull,
    UnknownCampaign,
    UnknownJob,
    UnknownMetric,
)
from repro.ops.ingest import BusTap, ingest_fleet, ingest_study
from repro.ops.protocol import PROTOCOL_VERSION, ProtocolError
from repro.ops.report import render_performance_report
from repro.ops.server import OpsServer

__all__ = [
    "BusTap",
    "CampaignHandle",
    "CampaignHub",
    "FLEET_PREFIX",
    "HubError",
    "HubFull",
    "OpsClient",
    "OpsServer",
    "OpsServiceError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SUM_METRICS",
    "UnknownCampaign",
    "UnknownJob",
    "UnknownMetric",
    "federate_series",
    "federated_names",
    "ingest_fleet",
    "ingest_study",
    "member_metric",
    "parse_fleet_metric",
    "render_performance_report",
    "rollup_metric",
]
