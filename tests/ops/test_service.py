"""The TCP service end to end: round trips, pushes, clean shutdown."""

import asyncio

import pytest

from repro.ops import CampaignHub, OpsClient, OpsServer, OpsServiceError

from .conftest import feed


def serve(test_coro_factory, *, hub=None):
    """Run one async test body against a freshly started server."""

    async def runner():
        local_hub = hub or CampaignHub()
        server = await OpsServer.start(local_hub)
        try:
            return await test_coro_factory(local_hub, server)
        finally:
            await server.close()

    return asyncio.run(runner())


@pytest.fixture(scope="module")
def served_hub(tiny_stream):
    hub = CampaignHub()
    hub.register("camp", kind="single")
    feed(hub, "camp", tiny_stream)
    hub.complete("camp")
    return hub


class TestRoundTrips:
    def test_ping_catalog_query_jobs_report(self, served_hub, tiny_dataset):
        async def body(hub, server):
            async with await OpsClient.connect("127.0.0.1", server.port) as client:
                ping = await client.request("ping")
                assert ping["campaigns"] == 1
                catalog = await client.request("catalog")
                assert catalog["campaigns"][0]["name"] == "camp"
                metrics = await client.request("metrics", campaign="camp")
                assert "gflops.system" in metrics["metrics"]
                query = await client.request(
                    "query", campaign="camp", metric="gflops.system", points=True
                )
                assert query["count"] == len(query["values"])
                assert query["dropped"] == 0
                jobs = await client.request("jobs", campaign="camp")
                assert jobs["finished"] == len(tiny_dataset.accounting)
                job_id = jobs["jobs"][0]["job_id"]
                report = await client.request("report", campaign="camp", job=job_id)
                assert f"job {job_id} performance report" in report["report"]
                stats = await client.request("stats")
                assert stats["requests_served"] >= 6

        serve(body, hub=served_hub)

    def test_error_codes(self, served_hub):
        async def body(hub, server):
            async with await OpsClient.connect("127.0.0.1", server.port) as client:
                for op, operands, code in (
                    ("nope", {}, "unknown-op"),
                    ("query", {}, "bad-request"),
                    ("query", {"campaign": "ghost", "metric": "x"}, "unknown-campaign"),
                    ("query", {"campaign": "camp", "metric": "x"}, "unknown-metric"),
                    ("report", {"campaign": "camp", "job": 10**9}, "unknown-job"),
                    ("jobs", {"campaign": "camp", "limit": float("inf")}, "bad-request"),
                ):
                    with pytest.raises(OpsServiceError) as err:
                        await client.request(op, **operands)
                    assert err.value.code == code
                # The connection survives every error above.
                assert (await client.request("ping"))["ok"] is True

        serve(body, hub=served_hub)

    def test_many_concurrent_clients(self, served_hub):
        async def body(hub, server):
            async def one_client(i):
                async with await OpsClient.connect("127.0.0.1", server.port) as c:
                    q = await c.request(
                        "query", campaign="camp", metric="gflops.system"
                    )
                    return q["count"]

            counts = await asyncio.gather(*(one_client(i) for i in range(64)))
            assert len(set(counts)) == 1  # same snapshot for everyone

        serve(body, hub=served_hub)


class TestAlertPushes:
    def test_subscribed_client_receives_live_alerts(self, tiny_stream):
        async def body(hub, server):
            hub.register("camp", kind="single")
            async with await OpsClient.connect("127.0.0.1", server.port) as client:
                sub = await client.request("subscribe", campaign="camp")
                assert sub["subscriptions"] == ["camp"]
                feed(hub, "camp", tiny_stream)
                expected, _ = hub.alerts_since("camp", 0)
                assert expected, "tiny campaign fired no alerts (fixture too quiet)"
                pushes = [
                    await client.next_push(5.0) for _ in range(len(expected))
                ]
                assert [p["alert"]["rule"] for p in pushes] == [
                    a.rule for _, a in expected
                ]
                assert all(p["campaign"] == "camp" for p in pushes)

        serve(body)

    def test_unsubscribed_client_gets_no_pushes(self, tiny_stream):
        async def body(hub, server):
            hub.register("camp", kind="single")
            async with await OpsClient.connect("127.0.0.1", server.port) as client:
                await client.request("subscribe", campaign="camp")
                await client.request("unsubscribe", campaign="camp")
                feed(hub, "camp", tiny_stream)
                await client.request("ping")  # round-trip barrier
                assert client.pushes.empty()

        serve(body)

    def test_subscribe_unknown_campaign_rejected(self, served_hub):
        async def body(hub, server):
            async with await OpsClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(OpsServiceError) as err:
                    await client.request("subscribe", campaign="ghost")
                assert err.value.code == "unknown-campaign"

        serve(body, hub=served_hub)


class TestShutdown:
    def test_shutdown_op_stops_service_cleanly(self, served_hub):
        async def body():
            server = await OpsServer.start(served_hub)
            port = server.port
            serving = asyncio.ensure_future(server.serve_until_shutdown())
            async with await OpsClient.connect("127.0.0.1", port) as client:
                ack = await client.request("shutdown")
                assert ack["stopping"] is True
            await asyncio.wait_for(serving, 5.0)
            # A new connection must now be refused.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(body())


class TestHubIsBounded:
    def test_ring_capacity_applies_to_hub_services(self, tiny_stream):
        hub = CampaignHub(store_capacity=8)
        hub.register("tight")
        feed(hub, "tight", tiny_stream)
        entry = hub.catalog()["campaigns"][0]
        assert entry["points_dropped"] > 0
        names = hub.metric_names("tight")
        assert names and all(hub.series_snapshot("tight", n).size <= 8 for n in names)


def test_tiny_campaign_fires_alerts(tiny_dataset):
    """Backstop for the push tests: the fixture must produce alerts."""
    assert tiny_dataset.telemetry.alerts
