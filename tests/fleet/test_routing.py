"""Routing properties: conservation, capacity, and degeneracy.

The contracts :mod:`repro.fleet.routing` promises, pinned as hypothesis
properties over random fleet shapes:

* **conservation** — routed member traces partition the fleet stream;
  job counts sum to the fleet total under every policy;
* **capacity** — a routed job never exceeds its member's node count;
* **degeneracy** — a single-member fleet's trace is the single-machine
  trace, byte for byte, under every policy.

A digest of demo3's routed trace under each policy pins the multi-member
draw itself.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.routing import generate_fleet_trace
from repro.fleet.spec import ROUTING_POLICIES, FleetSpec, MemberSpec, preset
from tests.workload.trace_digest import trace_digest

NODE_COUNTS = st.sampled_from([16, 32, 64, 144])

members = st.lists(NODE_COUNTS, min_size=1, max_size=4).map(
    lambda counts: tuple(
        MemberSpec(name=f"m{i}", n_nodes=n) for i, n in enumerate(counts)
    )
)

fleet_specs = st.builds(
    FleetSpec,
    members=members,
    seed=st.integers(min_value=0, max_value=2**16),
    n_days=st.integers(min_value=1, max_value=3),
    n_users=st.integers(min_value=2, max_value=12),
    routing=st.sampled_from(ROUTING_POLICIES),
)


class TestRoutingProperties:
    @given(fleet_specs)
    @settings(max_examples=25, deadline=None)
    def test_routed_jobs_sum_to_fleet_demand(self, spec):
        trace = generate_fleet_trace(spec)
        assert sum(trace.routed_counts().values()) == trace.total_submissions
        # ... and the assignment record agrees with the per-member traces.
        for name, count in trace.routed_counts().items():
            assert trace.assignments.count(name) == count

    @given(fleet_specs)
    @settings(max_examples=25, deadline=None)
    def test_routed_jobs_fit_their_member(self, spec):
        trace = generate_fleet_trace(spec)
        for member in spec.members:
            for sub in trace.member_traces[member.name].submissions:
                assert 0 < sub.nodes <= member.n_nodes
                assert 0 <= sub.time < spec.n_days * 86_400.0

    @given(fleet_specs)
    @settings(max_examples=10, deadline=None)
    def test_member_traces_carry_fleet_demand_levels(self, spec):
        trace = generate_fleet_trace(spec)
        for member_trace in trace.member_traces.values():
            assert np.array_equal(member_trace.demand_levels, trace.demand_levels)
            assert member_trace.seed == spec.seed
            assert member_trace.n_days == spec.n_days


class TestSingleMemberDegeneracy:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_days=st.integers(min_value=1, max_value=4),
        n_nodes=NODE_COUNTS,
        routing=st.sampled_from(ROUTING_POLICIES),
    )
    @settings(max_examples=15, deadline=None)
    def test_degenerates_to_serial_workload_trace(
        self, seed, n_days, n_nodes, routing
    ):
        from repro.workload.traces import generate_trace

        spec = FleetSpec(
            members=(MemberSpec(name="solo", n_nodes=n_nodes),),
            seed=seed,
            n_days=n_days,
            n_users=8,
            routing=routing,
        )
        fleet = generate_fleet_trace(spec).member_traces["solo"]
        serial = generate_trace(seed, n_days=n_days, n_nodes=n_nodes, n_users=8)
        assert len(fleet.submissions) == len(serial.submissions)
        for a, b in zip(fleet.submissions, serial.submissions):
            assert (a.time, a.user, a.app_name, a.nodes) == (
                b.time,
                b.user,
                b.app_name,
                b.nodes,
            )
            assert a.profile.walltime_seconds == b.profile.walltime_seconds
            assert a.profile.mflops_per_node == b.profile.mflops_per_node
        assert np.array_equal(fleet.demand_levels, serial.demand_levels)


#: demo3's routed trace per policy: the assignments, then each member's
#: submissions in member-name order (:func:`trace_digest`).
DEMO3_DIGESTS = {
    "home-center": "d5af72b86a02209e4a7586e9f3c695c86d10420249be64286c135f05295077dc",
    "least-loaded": "8f60bd950104a94b302a1ff906e713056ce81cd08cfd07939de1a6854e25bea7",
    "round-robin": "0c654991adbb19b3ecf69e787a43bacab032f04b2e217e1da6287f5b367ac7cf",
}


class TestPinnedRouting:
    @pytest.mark.parametrize("routing", ROUTING_POLICIES)
    def test_demo3_routed_trace_is_pinned(self, routing):
        trace = generate_fleet_trace(replace(preset("demo3"), routing=routing))
        streams = {name: t.submissions for name, t in trace.member_traces.items()}
        assert trace_digest(streams, trace.assignments) == DEMO3_DIGESTS[routing]


class TestPolicyShapes:
    """Deterministic spot checks of each policy's routing character."""

    def _spec(self, routing: str) -> FleetSpec:
        return FleetSpec(
            members=(
                MemberSpec(name="small", n_nodes=16),
                MemberSpec(name="big", n_nodes=144),
            ),
            seed=11,
            n_days=2,
            n_users=10,
            routing=routing,
        )

    def test_policies_route_differently_but_conserve(self):
        counts = {}
        for routing in ROUTING_POLICIES:
            trace = generate_fleet_trace(self._spec(routing))
            counts[routing] = trace.routed_counts()
            assert set(counts[routing]) == {"small", "big"}
        # Round-robin alternates; home-center concentrates by capacity
        # weight.  They cannot produce identical splits on this shape.
        assert len({tuple(sorted(c.items())) for c in counts.values()}) > 1

    def test_big_jobs_avoid_the_small_center(self):
        for routing in ROUTING_POLICIES:
            trace = generate_fleet_trace(self._spec(routing))
            for sub in trace.member_traces["small"].submissions:
                assert sub.nodes <= 16

    def test_least_loaded_balances_load_fraction(self):
        trace = generate_fleet_trace(self._spec("least-loaded"))
        capacity = {"small": 16.0, "big": 144.0}
        load = {
            name: sum(s.node_seconds for s in t.submissions) / capacity[name]
            for name, t in trace.member_traces.items()
        }
        # Balanced within a factor a couple of big jobs can explain.
        hi, lo = max(load.values()), min(load.values())
        assert hi <= 3.0 * max(lo, 1e-9)
