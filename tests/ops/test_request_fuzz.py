"""Request operands at the NDJSON boundary: a mistyped or non-finite
operand is a ``bad-request``, never a ``server-error``, and every
well-typed request keeps its answer."""

from __future__ import annotations

import asyncio
import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import CampaignHub, OpsServer
from repro.ops.protocol import MAX_LINE_BYTES, ProtocolError, decode_message, encode_message
from repro.ops.server import _Connection
from repro.util.checks import MAX_SHOWN

from .conftest import feed

#: The requests CI's ops-service smoke sends (``sp2-ops ask`` with the
#: smoke's flags), plus the verbs it does not round-trip.
SMOKE_REQUESTS = (
    {"op": "ping"},
    {"op": "catalog"},
    {"op": "query", "campaign": "smoke", "metric": "gflops.system"},
    {"op": "alerts", "campaign": "smoke"},
    {"op": "report", "campaign": "smoke", "job": 1},
    {"op": "stats"},
    {"op": "shutdown"},
    {"op": "metrics", "campaign": "smoke"},
    {"op": "jobs", "campaign": "smoke"},
    {"op": "subscribe", "campaign": "smoke"},
    {"op": "unsubscribe", "campaign": "smoke"},
)

#: Every operand some op reads.
OPERANDS = ("campaign", "metric", "job", "member", "since", "limit", "last", "points", "t0", "t1")

#: Answers a bad request may get; ``server-error`` is not one of them.
REQUEST_ERRORS = {"bad-request", "unknown-op", "unknown-campaign", "unknown-metric", "unknown-job"}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, -1, 10**400, -(10**400)]),
    st.floats(),  # NaN and ±Infinity included
    st.sampled_from([1e400, -1e400, 1.7, 0.5]),
    st.text(max_size=6),
    st.sampled_from(["smoke", "gflops.system", "fpu.ratio", "*"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def server(tiny_stream) -> OpsServer:
    hub = CampaignHub()
    hub.register("smoke", kind="single")
    feed(hub, "smoke", tiny_stream)
    hub.complete("smoke")
    return OpsServer(hub)


def ask(server: OpsServer, request: dict) -> dict:
    """Dispatch ``request`` as it would arrive: through JSON text."""
    conn = types.SimpleNamespace(subscriptions=set())
    answer = server._dispatch(conn, json.loads(json.dumps(request)))
    encode_message(answer)  # every answer must go back over the wire
    return answer


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(SMOKE_REQUESTS),
       mutation=st.dictionaries(st.sampled_from(OPERANDS), JSON_VALUES, max_size=3))
def test_mutated_smoke_requests_never_fail_the_server(server, base, mutation):
    answer = ask(server, {**base, **mutation})
    assert answer["ok"] or answer["error"] in REQUEST_ERRORS, answer


QUERY = {"op": "query", "campaign": "smoke", "metric": "gflops.system"}


@pytest.mark.parametrize(
    "request_, operand",
    [
        ({"op": "jobs", "campaign": "smoke", "limit": float("inf")}, "limit"),
        ({**QUERY, "last": 1e400}, "last"),
        ({"op": "jobs", "campaign": "smoke", "limit": True}, "limit"),
        ({"op": "alerts", "campaign": "smoke", "since": 1.7}, "since"),
        ({**QUERY, "points": "no"}, "points"),
        ({"op": "report", "campaign": "smoke", "job": True}, "job"),
        ({**QUERY, "t0": float("nan")}, "t0"),
        ({**QUERY, "t1": 10**400}, "t1"),
        ({"op": "jobs", "campaign": "smoke", "member": 5}, "member"),
        ({"op": "report", "campaign": "smoke", "job": 1, "member": ["a"]}, "member"),
        ({"op": "unsubscribe", "campaign": 5}, "campaign"),
    ],
    ids=["limit-inf", "last-1e400", "limit-true", "since-float", "points-string",
         "job-true", "t0-nan", "t1-huge-int", "member-int", "member-list", "unsubscribe-int"],
)
def test_bad_operand_is_a_bad_request(server, request_, operand):
    answer = ask(server, request_)
    assert answer["error"] == "bad-request", answer
    assert repr(operand) in answer["message"]


class TestWellTypedOperandsKeepTheirAnswers:
    def test_negative_limit_lists_every_job(self, server, tiny_dataset):
        answer = ask(server, {"op": "jobs", "campaign": "smoke", "limit": -3})
        assert len(answer["jobs"]) == answer["finished"] == len(tiny_dataset.accounting)
        assert ask(server, {"op": "jobs", "campaign": "smoke", "limit": 2})["jobs"] == (
            answer["jobs"][-2:]
        )

    def test_negative_since_reads_from_the_start(self, server):
        assert ask(server, {"op": "alerts", "campaign": "smoke", "since": -5}) == ask(
            server, {"op": "alerts", "campaign": "smoke", "since": 0}
        )

    def test_integer_window_bounds_read_as_floats(self, server):
        base = {"op": "query", "campaign": "smoke", "metric": "gflops.system", "points": True}
        assert ask(server, {**base, "t0": 900, "t1": 86400, "last": -1}) == ask(
            server, {**base, "t0": 900.0, "t1": 86400.0}
        )

    def test_null_optional_operands_are_absent(self, server):
        base = {"op": "query", "campaign": "smoke", "metric": "gflops.system"}
        assert ask(server, {**base, "t0": None, "t1": None, "last": None}) == ask(server, base)
        assert ask(server, {"op": "jobs", "campaign": "smoke", "member": None})["ok"]


#: A request line under ``MAX_LINE_BYTES`` nested deeper than the JSON
#: decoder can recurse.
DEEP_FRAME = b'{"op": "query", "campaign": ' + b"[" * 200_000 + b"]" * 200_000 + b"}\n"


def read_loop_answers(frame: bytes) -> list[dict]:
    """What a fresh server sends back on a connection that sends
    ``frame`` and closes."""
    server = OpsServer(CampaignHub())

    async def answers() -> list[dict]:
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        reader.feed_data(frame)
        reader.feed_eof()
        conn = _Connection(reader, writer=None)
        await server._read_loop(conn)
        return [decode_message(conn.queue.get_nowait()) for _ in range(conn.queue.qsize())]

    return asyncio.run(answers())


def test_deeply_nested_frame_is_a_bad_request():
    """The server answers the frame with ``bad-request`` before it
    closes the connection, as for any other malformed frame."""
    assert len(DEEP_FRAME) < MAX_LINE_BYTES
    with pytest.raises(ProtocolError, match="nested too deeply"):
        decode_message(DEEP_FRAME)
    assert [a["error"] for a in read_loop_answers(DEEP_FRAME)] == ["bad-request"]


@pytest.mark.parametrize(
    "frame",
    [
        b'{"op": "\xff"}\n',
        b"\xff{}\n",
        b'{"op": "query", "limit": ' + b"1" * 5000 + b"}\n",
    ],
    ids=["not-utf8-inside", "not-utf8-first-byte", "int-past-digit-limit"],
)
def test_undecodable_frame_is_a_bad_request(frame):
    """Bytes that are not UTF-8, and an integer literal longer than the
    interpreter converts, are malformed frames like any other: the
    client gets ``bad-request``, not a dropped connection."""
    with pytest.raises(ProtocolError, match="frame is not valid JSON"):
        decode_message(frame)
    assert [a["error"] for a in read_loop_answers(frame)] == ["bad-request"]


@pytest.mark.parametrize("length", [12, MAX_SHOWN, MAX_SHOWN + 1, 100_000])
def test_unknown_op_echo_is_bounded(length):
    """An unknown op comes back in the answer, but at most
    ``MAX_SHOWN`` characters of it, cut the way ``describe`` cuts: a
    100,000-character op once came back as a 100,122-byte frame."""
    op = "x" * length
    answer = ask(OpsServer(CampaignHub()), {"op": op})
    assert answer["error"] == "unknown-op"
    assert answer["op"] == (op if length <= MAX_SHOWN else op[: MAX_SHOWN - 3] + "...")
    assert len(encode_message(answer)) <= 300
