"""Frame encoding, parsing, and payload shaping."""

import asyncio

import numpy as np
import pytest

from repro.ops.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    read_message,
    series_to_json,
)
from repro.telemetry.store import MetricStore


class TestFraming:
    def test_roundtrip(self):
        frame = encode_message({"op": "ping", "n": 1})
        assert frame.endswith(b"\n")
        assert decode_message(frame) == {"op": "ping", "n": 1}

    def test_compact_and_sorted(self):
        # One line, deterministic key order: diffable smoke logs.
        assert encode_message({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(b"hello\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1,2]\n")

    def test_read_message_eof_is_none(self):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_message(reader)

        assert asyncio.run(body()) is None

    def test_read_message_parses_line(self):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_message({"op": "ping"}))
            reader.feed_eof()
            return await read_message(reader)

        assert asyncio.run(body()) == {"op": "ping"}

    def test_response_helpers(self):
        assert ok_response("ping", x=1) == {"ok": True, "op": "ping", "x": 1}
        err = error_response("query", "unknown-metric", "nope")
        assert err["ok"] is False and err["error"] == "unknown-metric"


class TestSeriesPayload:
    @pytest.fixture()
    def snap(self):
        store = MetricStore()
        for i in range(10):
            store.append(float(i * 900), {"m": float(i)})
        return store.series("m").snapshot()

    def test_summary_only_by_default(self, snap):
        payload = series_to_json(snap)
        assert payload["count"] == 10
        assert payload["dropped"] == 0
        assert payload["last"] == 9.0
        assert "times" not in payload and "values" not in payload

    def test_points_and_last_n(self, snap):
        payload = series_to_json(snap, points=True, last=3)
        assert payload["values"] == [7.0, 8.0, 9.0]
        assert payload["in_window"] == 10  # window size before the cut

    def test_window_bounds_halfopen(self, snap):
        payload = series_to_json(snap, t0=900.0, t1=2700.0, points=True)
        assert payload["values"] == [1.0, 2.0]

    def test_quantile_keys_are_json_safe(self, snap):
        assert set(series_to_json(snap)["quantiles"]) == {"p50", "p90", "p99"}

    def test_dropped_surfaced(self):
        store = MetricStore(capacity=4)
        for i in range(10):
            store.append(float(i), {"m": float(i)})
        payload = series_to_json(store.series("m").snapshot())
        assert payload["dropped"] == 6
        assert np.array_equal(store.series("m").snapshot().values, [6, 7, 8, 9])
