"""The asyncio query server in front of a :class:`CampaignHub`.

One ``OpsServer`` serves many concurrent clients over the line protocol
of :mod:`repro.ops.protocol`.  Two invariants keep it simple and
correct under the load test's thousand-client fan-in:

* **single-writer connections** — each connection owns a writer task
  draining a per-connection queue; request responses and alert pushes
  both go through the queue, so a server-push can never interleave
  mid-frame with a response;
* **no awaits inside hub reads** — handlers take their snapshot
  synchronously (the hub hands out immutable views), so a slow client
  on one connection cannot make another connection observe a torn
  state.

Shutdown is an op (``{"op": "shutdown"}``): the CI smoke uses it to
prove the service exits cleanly with all connections drained.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.ops.hub import (
    CampaignHub,
    HubFull,
    UnknownCampaign,
    UnknownJob,
    UnknownMetric,
)
from repro.ops.protocol import (
    ERR_BAD_REQUEST,
    ERR_SERVER,
    ERR_UNKNOWN_CAMPAIGN,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_METRIC,
    ERR_UNKNOWN_OP,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    alert_push,
    alert_to_json,
    encode_message,
    error_response,
    ok_response,
    read_message,
    series_to_json,
)
from repro.telemetry.rollup import JobRollup
from repro.util.checks import check_number, cut, describe

#: Listen backlog — the load test opens ~1000 connections in a burst.
DEFAULT_BACKLOG = 2048

#: Per-connection outbound queue bound; a client that stops reading has
#: its pushes dropped (and counted) rather than growing without bound.
MAX_QUEUED_FRAMES = 4096

_CLOSE = None  # writer-queue sentinel


class _Connection:
    """One client: its streams, outbound queue, and subscriptions."""

    __slots__ = ("reader", "writer", "queue", "subscriptions", "pushes_dropped")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_QUEUED_FRAMES)
        #: Campaign names this client gets alert pushes for ("*" = all).
        self.subscriptions: set[str] = set()
        self.pushes_dropped = 0

    def send(self, frame: dict[str, Any]) -> None:
        """Queue one frame; drops pushes (never responses) when full."""
        try:
            self.queue.put_nowait(encode_message(frame))
        except asyncio.QueueFull:
            self.pushes_dropped += 1


class OpsServer:
    """The service: a hub, a TCP listener, and per-connection tasks."""

    def __init__(self, hub: CampaignHub) -> None:
        self.hub = hub
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self.shutdown_requested = asyncio.Event()
        self.requests_served = 0
        self.errors_returned = 0
        self.pushes_sent = 0
        self.connections_total = 0
        hub.add_alert_listener(self._on_alert)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def start(
        cls,
        hub: CampaignHub,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = DEFAULT_BACKLOG,
    ) -> "OpsServer":
        self = cls(hub)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host,
            port,
            backlog=backlog,
            limit=MAX_LINE_BYTES,
        )
        return self

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Accept clients until a ``shutdown`` op arrives, then drain."""
        assert self._server is not None
        await self.shutdown_requested.wait()
        await self.close()

    async def close(self) -> None:
        self.shutdown_requested.set()
        # Wake readers blocked mid-read so their handlers can exit;
        # writer tasks drain their queues first, so queued responses
        # (the shutdown ack included) still reach their clients.
        for conn in list(self._connections):
            conn.reader.feed_eof()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain handler tasks ourselves: on 3.11 ``wait_closed`` does not
        # wait for them, and letting loop teardown cancel a handler makes
        # asyncio's done-callback log a spurious CancelledError per
        # connection — a thousand-line goodbye under the load test.
        pending = [t for t in self._handler_tasks if not t.done()]
        if pending:
            _, stuck = await asyncio.wait(pending, timeout=5.0)
            for task in stuck:  # unresponsive peer: cancel as a last resort
                task.cancel()
            if stuck:
                await asyncio.wait(stuck, timeout=1.0)
        self.hub.remove_alert_listener(self._on_alert)

    # ------------------------------------------------------------------
    # Alert fan-out
    # ------------------------------------------------------------------
    def _on_alert(self, campaign: str, member: str | None, alert) -> None:
        frame = None
        for conn in self._connections:
            if "*" in conn.subscriptions or campaign in conn.subscriptions:
                if frame is None:
                    frame = alert_push(campaign, member, alert)
                conn.send(frame)
                self.pushes_sent += 1

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.connections_total += 1
        writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(conn)
        finally:
            self._connections.discard(conn)
            conn.queue.put_nowait(_CLOSE)
            try:
                await writer_task
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if task is not None:
                self._handler_tasks.discard(task)

    async def _write_loop(self, conn: _Connection) -> None:
        while True:
            frame = await conn.queue.get()
            if frame is _CLOSE:
                return
            conn.writer.write(frame)
            await conn.writer.drain()

    async def _read_loop(self, conn: _Connection) -> None:
        while not self.shutdown_requested.is_set():
            try:
                request = await read_message(conn.reader)
            except ProtocolError as exc:
                self.errors_returned += 1
                conn.send(error_response("?", ERR_BAD_REQUEST, str(exc)))
                return
            if request is None:
                return
            self.requests_served += 1
            response = self._dispatch(conn, request)
            if not response.get("ok", False):
                self.errors_returned += 1
            conn.send(response)

    # ------------------------------------------------------------------
    # Request dispatch — synchronous on purpose (see module docstring)
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if not isinstance(op, str):
            return error_response("?", ERR_BAD_REQUEST, "request needs an 'op' string")
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            # The answer names the op, but never echoes a request whole.
            return error_response(
                cut(op), ERR_UNKNOWN_OP, f"unknown op {describe(op)}; see protocol.REQUEST_OPS"
            )
        try:
            return handler(conn, request)
        except UnknownCampaign as exc:
            return error_response(op, ERR_UNKNOWN_CAMPAIGN, str(exc))
        except UnknownMetric as exc:
            return error_response(op, ERR_UNKNOWN_METRIC, str(exc))
        except UnknownJob as exc:
            return error_response(op, ERR_UNKNOWN_JOB, str(exc))
        except (TypeError, ValueError, KeyError, HubFull) as exc:
            return error_response(op, ERR_BAD_REQUEST, str(exc))
        except Exception as exc:  # the server must not die on one request
            return error_response(op, ERR_SERVER, f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _campaign_arg(request: dict[str, Any]) -> str:
        campaign = request.get("campaign")
        if not isinstance(campaign, str):
            raise ValueError("request needs a 'campaign' string")
        return campaign

    @staticmethod
    def _number_arg(
        request: dict[str, Any], key: str, default: Any = None, *, integer: bool = False
    ) -> Any:
        """A finite number of either sign (an int if ``integer``), or
        ``default`` when absent; ``null`` stands for absent only when the
        default is ``None``.  A non-integer comes back as a float."""
        value = request.get(key, default)
        if value is None and default is None:
            return None
        check_number(value, repr(key), integer=integer, positive=None)
        if integer:
            return value
        try:
            return float(value)
        except OverflowError:  # an integer past float range
            raise ValueError(f"{key!r} must be finite, got {describe(value)}") from None

    @staticmethod
    def _member_arg(request: dict[str, Any]) -> str | None:
        member = request.get("member")
        if member is not None and not isinstance(member, str):
            raise ValueError(f"'member' must be a string or null, got {describe(member)}")
        return member

    def _op_ping(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        return ok_response(
            "ping", version=PROTOCOL_VERSION, campaigns=len(self.hub.names())
        )

    def _op_catalog(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        return ok_response("catalog", **self.hub.catalog())

    def _op_metrics(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = self._campaign_arg(request)
        return ok_response("metrics", campaign=campaign,
                           metrics=self.hub.metric_names(campaign))

    def _op_query(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = self._campaign_arg(request)
        metric = request.get("metric")
        if not isinstance(metric, str):
            raise ValueError("query needs a 'metric' string")
        snap = self.hub.series_snapshot(campaign, metric)
        t0 = self._number_arg(request, "t0")
        t1 = self._number_arg(request, "t1")
        last = self._number_arg(request, "last", integer=True)
        points = request.get("points", False)
        if not isinstance(points, bool):
            raise ValueError(f"'points' must be true or false, got {describe(points)}")
        payload = series_to_json(snap, t0=t0, t1=t1, points=points, last=last)
        return ok_response("query", campaign=campaign, **payload)

    def _op_jobs(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = self._campaign_arg(request)
        member = self._member_arg(request)
        limit = self._number_arg(request, "limit", 50, integer=True)
        rollups = self.hub.job_rollups(campaign, member=member)
        total = len(rollups)
        if limit > 0:
            rollups = rollups[-limit:]
        return ok_response(
            "jobs",
            campaign=campaign,
            finished=total,
            jobs=[self._rollup_to_json(m, r) for m, r in rollups],
        )

    @staticmethod
    def _rollup_to_json(member: str | None, rollup: JobRollup) -> dict[str, Any]:
        return {
            "job_id": rollup.job_id,
            "member": member,
            "app": rollup.app_name,
            "user": rollup.user,
            "nodes": len(rollup.record.node_ids),
            "walltime_s": rollup.record.walltime_seconds,
            "total_mflops": rollup.total_mflops,
            "mflops_per_node": rollup.mflops_per_node,
            "sys_usr_fxu_ratio": rollup.system_user_fxu_ratio,
        }

    def _op_report(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = self._campaign_arg(request)
        job = self._number_arg(request, "job", integer=True)
        if job is None:
            raise ValueError("report needs an integer 'job' id")
        member = self._member_arg(request)
        text = self.hub.job_report(campaign, job, member=member)
        return ok_response("report", campaign=campaign, job=job, report=text)

    def _op_alerts(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = self._campaign_arg(request)
        cursor = self._number_arg(request, "since", 0, integer=True)
        entries, next_cursor = self.hub.alerts_since(campaign, cursor)
        return ok_response(
            "alerts",
            campaign=campaign,
            cursor=next_cursor,
            alerts=[
                {"member": member, **alert_to_json(alert)}
                for member, alert in entries
            ],
        )

    def _op_subscribe(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = request.get("campaign", "*")
        if not isinstance(campaign, str):
            raise ValueError("'campaign' must be a string (or omitted for all)")
        if campaign != "*":
            self.hub.handle(campaign)  # validate now, not at push time
        conn.subscriptions.add(campaign)
        return ok_response(
            "subscribe", campaign=campaign, subscriptions=sorted(conn.subscriptions)
        )

    def _op_unsubscribe(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        campaign = request.get("campaign", "*")
        if not isinstance(campaign, str):
            raise ValueError("'campaign' must be a string (or omitted for all)")
        conn.subscriptions.discard(campaign)
        return ok_response(
            "unsubscribe", campaign=campaign, subscriptions=sorted(conn.subscriptions)
        )

    def _op_stats(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        return ok_response(
            "stats",
            connections_open=len(self._connections),
            connections_total=self.connections_total,
            requests_served=self.requests_served,
            errors_returned=self.errors_returned,
            pushes_sent=self.pushes_sent,
            pushes_dropped=sum(c.pushes_dropped for c in self._connections),
            campaigns=len(self.hub.names()),
            campaigns_evicted=self.hub.campaigns_evicted,
        )

    def _op_shutdown(self, conn: _Connection, request: dict[str, Any]) -> dict[str, Any]:
        # Dispatch is synchronous, so the ack is queued before the
        # event wakes serve_until_shutdown; writers drain on close.
        self.shutdown_requested.set()
        return ok_response("shutdown", stopping=True)
