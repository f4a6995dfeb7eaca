"""Failure-domain topology, correlated storms, replication and recovery.

The hypothesis suites pin the two load-bearing contracts of the domain
layer: :meth:`DomainSchedule.expand_to_schedule` must agree with a
brute-force per-replica oracle (and be deterministic and
permutation-invariant, since every DES loop consumes its output), and
:func:`replicate_shards` must never co-locate two copies of a shard in
one spread domain when a spread is feasible — and refuse loudly when it
is not.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL, SKYLAKE
from repro.serving import (
    DOMAIN_HOST,
    DOMAIN_KINDS,
    DOMAIN_RACK,
    DOMAIN_ZONE,
    SLA,
    DomainCrash,
    DomainPartition,
    DomainSchedule,
    DomainSlowdown,
    FleetTopology,
    MachinePool,
    NetworkConfig,
    WorkloadDemand,
    best_spread,
    distributed_latency,
    diverse_domain_order,
    domain_failures,
    domain_storm,
    domain_survivable_capacity,
    expand_to_schedule,
    fault_storm,
    partial_fanout_config,
    recovery_timeline,
    replicate_shards,
    shard_tables,
    survivable_capacity,
    worst_single_domain_loss,
)
from repro.serving.distributed import degraded_fanout_quality

PROPS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------- strategies


@st.composite
def topologies(draw) -> FleetTopology:
    return FleetTopology(
        num_replicas=draw(st.integers(1, 24)),
        replicas_per_host=draw(st.integers(1, 3)),
        hosts_per_rack=draw(st.integers(1, 4)),
        racks_per_zone=draw(st.integers(1, 3)),
    )


@st.composite
def topology_and_schedule(draw) -> tuple[FleetTopology, DomainSchedule]:
    topology = draw(topologies())

    def scope() -> tuple[str, int]:
        kind = draw(st.sampled_from(DOMAIN_KINDS))
        return kind, draw(st.integers(0, topology.num_domains(kind) - 1))

    crashes = []
    for _ in range(draw(st.integers(0, 3))):
        kind, domain_id = scope()
        crashes.append(
            DomainCrash(
                kind=kind,
                domain_id=domain_id,
                at_s=draw(st.floats(0.0, 1.0)),
                downtime_s=draw(st.floats(0.01, 0.5)),
            )
        )
    partitions = []
    for _ in range(draw(st.integers(0, 3))):
        kind, domain_id = scope()
        partitions.append(
            DomainPartition(
                kind=kind,
                domain_id=domain_id,
                start_s=draw(st.floats(0.0, 1.0)),
                duration_s=draw(st.floats(0.01, 0.5)),
            )
        )
    slowdowns = []
    for _ in range(draw(st.integers(0, 3))):
        kind, domain_id = scope()
        slowdowns.append(
            DomainSlowdown(
                kind=kind,
                domain_id=domain_id,
                start_s=draw(st.floats(0.0, 1.0)),
                duration_s=draw(st.floats(0.01, 0.5)),
                slowdown=draw(st.floats(1.0, 20.0)),
            )
        )
    return topology, DomainSchedule(crashes, partitions, slowdowns)


# --------------------------------------------------------------- topology


class TestFleetTopology:
    def test_sizes_ceil_divide(self):
        topology = FleetTopology(
            num_replicas=8, replicas_per_host=1, hosts_per_rack=2,
            racks_per_zone=2,
        )
        assert topology.num_hosts == 8
        assert topology.num_racks == 4
        assert topology.num_zones == 2

    def test_ragged_tail_occupies_partial_domains(self):
        topology = FleetTopology(
            num_replicas=5, replicas_per_host=2, hosts_per_rack=2,
            racks_per_zone=2,
        )
        assert topology.num_hosts == 3  # last host holds one replica
        assert topology.num_racks == 2
        assert topology.num_zones == 1

    @PROPS
    @given(topology=topologies())
    def test_every_kind_partitions_the_fleet(self, topology):
        for kind in DOMAIN_KINDS:
            seen = [
                r
                for domain_id in range(topology.num_domains(kind))
                for r in topology.replicas_in(kind, domain_id)
            ]
            assert sorted(seen) == list(range(topology.num_replicas))
            assert len(seen) == len(set(seen))

    @PROPS
    @given(topology=topologies())
    def test_domain_nesting_is_consistent(self, topology):
        for r in range(topology.num_replicas):
            host = topology.host_of(r)
            assert topology.rack_of(r) == topology.host_domain(host, DOMAIN_RACK)
            assert topology.zone_of(r) == topology.host_domain(host, DOMAIN_ZONE)

    @PROPS
    @given(topology=topologies())
    def test_diverse_order_enumerates_each_kind_once(self, topology):
        for kind in DOMAIN_KINDS:
            order = diverse_domain_order(topology, kind)
            assert sorted(order) == list(range(topology.num_domains(kind)))

    def test_diverse_rack_order_interleaves_zones(self):
        topology = FleetTopology(
            num_replicas=8, replicas_per_host=1, hosts_per_rack=2,
            racks_per_zone=2,
        )
        order = diverse_domain_order(topology, DOMAIN_RACK)
        zones = [r // topology.racks_per_zone for r in order]
        assert zones[:2] == [0, 1]  # adjacent racks straddle zones

    def test_bounds_are_checked(self):
        topology = FleetTopology(num_replicas=4)
        with pytest.raises(ValueError, match="outside fleet"):
            topology.host_of(4)
        with pytest.raises(ValueError, match="outside topology"):
            topology.replicas_in(DOMAIN_HOST, 99)
        with pytest.raises(ValueError, match="unknown domain kind"):
            topology.num_domains("pod")
        with pytest.raises(ValueError, match="at least one replica"):
            FleetTopology(num_replicas=0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("num_replicas", 2.5),
            ("replicas_per_host", 1.5),
            ("hosts_per_rack", True),
            ("racks_per_zone", 2.5),
        ],
    )
    def test_counts_must_be_integers(self, field, bad):
        # Accepted at construction, a fractional count used to fail later
        # with a TypeError in num_hosts.
        FleetTopology(**{"num_replicas": 4, field: np.int64(2)})
        with pytest.raises(ValueError, match=field):
            FleetTopology(**{"num_replicas": 4, field: bad})

    def test_best_spread_prefers_widest_kind(self):
        topology = FleetTopology(
            num_replicas=8, replicas_per_host=1, hosts_per_rack=2,
            racks_per_zone=2,
        )
        assert best_spread(topology, 2) == DOMAIN_ZONE
        assert best_spread(topology, 3) == DOMAIN_RACK
        assert best_spread(topology, 5) == DOMAIN_HOST
        with pytest.raises(ValueError, match="cannot spread"):
            best_spread(topology, 9)


# ------------------------------------------------------------ domain events


class TestDomainEvents:
    @pytest.mark.parametrize(
        "event, field, bad, good",
        [
            (DomainCrash, "domain_id", 1.5, np.int64(1)),
            (DomainCrash, "at_s", math.nan, np.float64(0.2)),
            (DomainCrash, "downtime_s", math.nan, math.inf),
            (DomainPartition, "domain_id", True, np.int32(1)),
            (DomainPartition, "duration_s", math.nan, math.inf),
            (DomainSlowdown, "domain_id", 2.5, np.int64(0)),
            (DomainSlowdown, "slowdown", math.nan, 4.0),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_events_reject_hostile_fields(self, event, field, bad, good):
        # Each constructed: a fractional domain crashed no replica, and a
        # nan failed only at expansion with a replica-level message.
        base = {
            DomainCrash: {"at_s": 0.1, "downtime_s": 0.2},
            DomainPartition: {"start_s": 0.1, "duration_s": 0.2},
            DomainSlowdown: {"start_s": 0.1, "duration_s": 0.2, "slowdown": 2.0},
        }[event]
        event(DOMAIN_RACK, **{"domain_id": 0, **base, field: good})
        with pytest.raises(ValueError, match=field):
            event(DOMAIN_RACK, **{"domain_id": 0, **base, field: bad})


# -------------------------------------------------- expansion vs an oracle


def oracle_crashes(topology, schedule):
    """Brute-force per-replica lowering, one interval per (event, victim)."""
    out = []
    for c in schedule.crashes:
        for r in range(topology.num_replicas):
            if topology.domain_of(r, c.kind) == c.domain_id:
                out.append((c.at_s, r, c.downtime_s))
    for p in schedule.partitions:
        for r in range(topology.num_replicas):
            if topology.domain_of(r, p.kind) == p.domain_id:
                out.append((p.start_s, r, p.duration_s))
    return sorted(out)


def down_intervals(crashes, replica_id):
    """Merged downtime of one replica from a crash tuple list."""
    merged = []
    mine = sorted(
        (c.at_s, c.at_s + c.downtime_s)
        for c in crashes
        if c.replica_id == replica_id
    )
    for start_s, end_s in mine:
        if merged and start_s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end_s))
        else:
            merged.append((start_s, end_s))
    return merged


class TestExpandToSchedule:
    @PROPS
    @given(case=topology_and_schedule())
    def test_matches_brute_force_oracle(self, case):
        topology, schedule = case
        expanded = schedule.expand_to_schedule(topology)
        assert [
            (c.at_s, c.replica_id, c.downtime_s) for c in expanded.crashes
        ] == oracle_crashes(topology, schedule)
        want_stragglers = sorted(
            (s.start_s, r, s.duration_s, s.slowdown)
            for s in schedule.slowdowns
            for r in range(topology.num_replicas)
            if topology.domain_of(r, s.kind) == s.domain_id
        )
        assert [
            (s.start_s, s.replica_id, s.duration_s, s.slowdown)
            for s in expanded.stragglers
        ] == want_stragglers
        assert expanded.bandwidth_faults == ()

    @PROPS
    @given(case=topology_and_schedule(), t_s=st.floats(0.0, 1.5))
    def test_healthy_fraction_matches_oracle(self, case, t_s):
        topology, schedule = case
        expanded = schedule.expand_to_schedule(topology)
        healthy = 0
        for r in range(topology.num_replicas):
            intervals = down_intervals(expanded.crashes, r)
            if not any(a <= t_s < b for a, b in intervals):
                healthy += 1
        # Oracle straight from the domain events, no lowering involved.
        oracle = 0
        for r in range(topology.num_replicas):
            down = False
            for c in schedule.crashes:
                if (
                    topology.domain_of(r, c.kind) == c.domain_id
                    and c.at_s <= t_s < c.at_s + c.downtime_s
                ):
                    down = True
            for p in schedule.partitions:
                if (
                    topology.domain_of(r, p.kind) == p.domain_id
                    and p.start_s <= t_s < p.start_s + p.duration_s
                ):
                    down = True
            oracle += not down
        assert healthy == oracle

    @PROPS
    @given(case=topology_and_schedule(), data=st.data())
    def test_deterministic_and_permutation_invariant(self, case, data):
        topology, schedule = case
        first = schedule.expand_to_schedule(topology)
        again = expand_to_schedule(schedule, topology)
        shuffled = DomainSchedule(
            crashes=data.draw(st.permutations(schedule.crashes)),
            partitions=data.draw(st.permutations(schedule.partitions)),
            slowdowns=data.draw(st.permutations(schedule.slowdowns)),
        )
        reordered = shuffled.expand_to_schedule(topology)
        for other in (again, reordered):
            assert first.crashes == other.crashes
            assert first.stragglers == other.stragglers
            assert first.bandwidth_faults == other.bandwidth_faults

    def test_validate_rejects_out_of_range_domains(self):
        topology = FleetTopology(num_replicas=4)
        schedule = DomainSchedule(
            crashes=(DomainCrash(DOMAIN_ZONE, 7, at_s=0.0, downtime_s=1.0),)
        )
        with pytest.raises(ValueError, match="only 1 zone"):
            schedule.expand_to_schedule(topology)

    def test_zero_schedule_expands_to_zero(self):
        expanded = DomainSchedule.zero().expand_to_schedule(
            FleetTopology(num_replicas=4)
        )
        assert expanded.is_zero
        assert DomainSchedule.zero().is_zero


# ------------------------------------------------------------------ storms


class TestDomainStorm:
    def test_deterministic_in_seed(self):
        topology = FleetTopology(num_replicas=8, hosts_per_rack=2)
        a = domain_storm(topology, 1.0, seed=3)
        b = domain_storm(topology, 1.0, seed=3)
        assert a.crashes == b.crashes
        assert a.partitions == b.partitions
        assert a.slowdowns == b.slowdowns

    def test_events_fit_topology_and_horizon(self):
        topology = FleetTopology(num_replicas=8, hosts_per_rack=2)
        storm = domain_storm(topology, 2.0, seed=7)
        storm.validate(topology)
        for c in storm.crashes:
            assert 0.0 <= c.at_s <= 1.6  # 80% of the horizon
            assert c.downtime_s <= 0.4

    def test_rejects_bad_arguments(self):
        topology = FleetTopology(num_replicas=4)
        with pytest.raises(ValueError, match="duration"):
            domain_storm(topology, 0.0, seed=1)
        with pytest.raises(ValueError, match="domain kind"):
            domain_storm(topology, 1.0, seed=1, kinds=())


class TestCorrelatedFaultStorm:
    def test_zero_correlation_is_byte_identical(self):
        """The escalation knob must not perturb the base storm draws."""
        topology = FleetTopology(
            num_replicas=6, replicas_per_host=1, hosts_per_rack=3
        )
        for seed in range(5):
            base = fault_storm(6, 1.0, seed=seed)
            gated = fault_storm(
                6, 1.0, seed=seed, topology=topology, correlation=0.0
            )
            assert base.crashes == gated.crashes
            assert base.stragglers == gated.stragglers
            assert base.bandwidth_faults == gated.bandwidth_faults

    def test_full_correlation_escalates_to_whole_domains(self):
        topology = FleetTopology(
            num_replicas=6, replicas_per_host=1, hosts_per_rack=3
        )
        base = fault_storm(6, 1.0, seed=2)
        storm = fault_storm(
            6, 1.0, seed=2, topology=topology, correlation=1.0,
            correlation_kind=DOMAIN_RACK,
        )
        for crash in base.crashes:
            rack = topology.rack_of(crash.replica_id)
            victims = {
                c.replica_id for c in storm.crashes if c.at_s == crash.at_s
            }
            assert victims >= set(topology.replicas_in(DOMAIN_RACK, rack))
        assert len(storm.crashes) >= len(base.crashes)

    def test_rejects_bad_correlation_arguments(self):
        topology = FleetTopology(num_replicas=4)
        with pytest.raises(ValueError, match="correlation"):
            fault_storm(4, 1.0, seed=0, topology=topology, correlation=1.5)
        with pytest.raises(ValueError, match="topology covers"):
            fault_storm(8, 1.0, seed=0, topology=topology, correlation=0.5)


# ------------------------------------------------------------- replication


class TestReplicationPlan:
    @PROPS
    @given(
        topology=topologies(),
        replication_factor=st.integers(1, 4),
        num_shards=st.integers(1, 2),
    )
    def test_copies_land_in_distinct_domains(
        self, topology, replication_factor, num_shards
    ):
        plan = shard_tables(RMC1_SMALL, num_shards)
        if replication_factor > topology.num_hosts:
            with pytest.raises(ValueError, match="cannot"):
                replicate_shards(plan, topology, replication_factor)
            return
        replication = replicate_shards(plan, topology, replication_factor)
        assert replication.spread == best_spread(topology, replication_factor)
        for shard in range(plan.num_shards):
            hosts = replication.hosts_of(shard)
            assert len(hosts) == replication_factor
            domains = [
                topology.host_domain(h, replication.spread) for h in hosts
            ]
            assert len(set(domains)) == len(domains)

    def test_zone_spread_straddles_zones_even_for_rack_spread(self):
        # k=3 forces rack spread on a 2-zone fleet; the diverse order must
        # still put the first two copies in different *zones*.
        topology = FleetTopology(
            num_replicas=8, replicas_per_host=1, hosts_per_rack=2,
            racks_per_zone=2,
        )
        replication = replicate_shards(shard_tables(RMC1_SMALL, 2), topology, 3)
        assert replication.spread == DOMAIN_RACK
        for shard in range(2):
            h0, h1, _ = replication.hosts_of(shard)
            assert topology.host_domain(h0, DOMAIN_ZONE) != (
                topology.host_domain(h1, DOMAIN_ZONE)
            )

    def test_infeasible_spread_raises_with_actionable_message(self):
        topology = FleetTopology(
            num_replicas=4, replicas_per_host=1, hosts_per_rack=2,
            racks_per_zone=2,
        )
        plan = shard_tables(RMC1_SMALL, 2)
        with pytest.raises(ValueError, match="only 1 zone"):
            replicate_shards(plan, topology, 2, spread=DOMAIN_ZONE)
        with pytest.raises(ValueError, match="cannot spread 5 copies"):
            replicate_shards(plan, topology, 5)

    def test_validate_catches_co_located_copies(self):
        from repro.serving import ReplicationPlan

        topology = FleetTopology(num_replicas=4)
        plan = shard_tables(RMC1_SMALL, 1)
        bad = ReplicationPlan(
            plan=plan,
            replication_factor=2,
            spread=DOMAIN_HOST,
            copy_hosts=((1, 1),),
        )
        with pytest.raises(ValueError, match="share a host domain"):
            bad.validate(topology)


# ---------------------------------------------------------------- failover


NETWORK = NetworkConfig()
TOPOLOGY_2Z = FleetTopology(
    num_replicas=8, replicas_per_host=1, hosts_per_rack=2, racks_per_zone=2
)
PLAN_2 = shard_tables(RMC1_SMALL, 2)


class TestFailoverReads:
    def test_replication_off_switch_is_bit_identical(self):
        base = distributed_latency(BROADWELL, RMC1_SMALL, 8, PLAN_2)
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        with_replication = distributed_latency(
            BROADWELL, RMC1_SMALL, 8, PLAN_2, replication=replication
        )
        assert with_replication == base  # all copies up: same dataclass

    def test_dead_primary_costs_one_round_trip(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        base = distributed_latency(BROADWELL, RMC1_SMALL, 8, PLAN_2)
        degraded = distributed_latency(
            BROADWELL, RMC1_SMALL, 8, PLAN_2,
            replication=replication,
            copy_available=[[False, True], [False, True]],
        )
        assert degraded.failover_hops == 2  # one hop per shard
        assert degraded.lost_tables == ()
        assert degraded.total_seconds == pytest.approx(
            base.total_seconds + NETWORK.rtt_s
        )

    def test_lost_shard_degrades_to_partial_fanout(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        result = distributed_latency(
            BROADWELL, RMC1_SMALL, 8, PLAN_2,
            replication=replication,
            copy_available=[[False, False], [True, True]],
        )
        assert result.lost_tables == tuple(sorted(PLAN_2.tables_of(0)))
        quality = degraded_fanout_quality(RMC1_SMALL, result.lost_tables)
        assert 0.0 < quality["recall_at_k"] <= 1.0
        assert 0.0 < quality["ndcg_at_k"] <= 1.0

    def test_partial_fanout_config_truncates_lost_tables(self):
        partial = partial_fanout_config(RMC1_SMALL, [0])
        assert partial.embedding_tables[0].lookups_per_sample == 1
        assert partial.name.endswith("-partial1")
        assert partial_fanout_config(RMC1_SMALL, []) is RMC1_SMALL
        with pytest.raises(ValueError, match="outside model"):
            partial_fanout_config(RMC1_SMALL, [99])

    def test_mismatched_plans_are_rejected(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        other_plan = shard_tables(RMC1_SMALL, 1)
        with pytest.raises(ValueError, match="different shard plan"):
            distributed_latency(
                BROADWELL, RMC1_SMALL, 8, other_plan, replication=replication
            )
        with pytest.raises(ValueError, match="every shard"):
            distributed_latency(
                BROADWELL, RMC1_SMALL, 8, PLAN_2,
                replication=replication,
                copy_available=[[True, True]],
            )


# ---------------------------------------------------------------- recovery


def zone_crash(duration_s=1.0):
    return DomainSchedule(
        crashes=(
            DomainCrash(
                kind=DOMAIN_ZONE, domain_id=0, at_s=0.3 * duration_s,
                downtime_s=0.15 * duration_s,
            ),
        )
    )


class TestRecoveryTimeline:
    def test_unreplicated_zone_loss_cold_reloads(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 1)
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, zone_crash()
        )
        # Every primary lived in zone 0, so no live source exists.
        assert timeline.transfers
        assert all(t.source_host is None for t in timeline.transfers)
        assert timeline.time_to_full_redundancy_s > 0.45  # after restart
        assert math.isfinite(timeline.time_to_full_redundancy_s)
        assert timeline.blackout_s(1.0) > 0.15  # downtime + re-stream

    def test_zone_spread_copy_survives_and_streams_back(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, zone_crash()
        )
        assert timeline.blackout_s(1.0) == 0.0
        assert timeline.transfers
        for transfer in timeline.transfers:
            assert transfer.source_host is not None
            assert TOPOLOGY_2Z.host_domain(transfer.source_host, DOMAIN_ZONE) == 1
            assert transfer.lost_at_s <= transfer.start_s < transfer.done_s
        expected_s = 0.45 + timeline.transfers[0].shard_bytes / (
            timeline.bandwidth_bytes_per_s
        )
        assert timeline.time_to_full_redundancy_s >= expected_s - 1e-9

    def test_bandwidth_is_nic_dram_min(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, zone_crash()
        )
        assert timeline.bandwidth_bytes_per_s == min(
            NETWORK.bandwidth_bytes_per_s, BROADWELL.dram_bw_bytes_per_s
        )

    def test_partition_heals_without_transfers(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 1)
        events = DomainSchedule(
            partitions=(
                DomainPartition(
                    kind=DOMAIN_ZONE, domain_id=0, start_s=0.3, duration_s=0.2
                ),
            )
        )
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, events
        )
        assert timeline.transfers == ()
        assert timeline.time_to_full_redundancy_s == 0.0
        # State survives: down exactly for the partition window.
        assert timeline.blackout_s(1.0) == pytest.approx(0.2)
        assert timeline.copy_is_down(0, 0, 0.4)
        assert not timeline.copy_is_down(0, 0, 0.51)

    def test_recrash_mid_restream_aborts_and_restarts(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        host = replication.hosts_of(0)[0]
        # Transfer takes ~4 ms at NIC bandwidth; the second crash lands
        # inside the first re-stream and must abort it.
        events = DomainSchedule(
            crashes=(
                DomainCrash(DOMAIN_HOST, host, at_s=0.010, downtime_s=0.001),
                DomainCrash(DOMAIN_HOST, host, at_s=0.012, downtime_s=0.001),
            )
        )
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, events
        )
        assert timeline.aborted_transfers >= 1
        assert timeline.time_to_full_redundancy_s > 0.013

    def test_service_segments_tile_the_horizon(self):
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, zone_crash()
        )
        segments = timeline.service_segments(1.0)
        assert segments[0].start_s == 0.0
        assert segments[-1].end_s == 1.0
        for left, right in zip(segments, segments[1:]):
            assert left.end_s == right.start_s
        # During the outage the surviving copy is one failover hop away.
        assert any(seg.max_failover_hops == 1 for seg in segments)
        # Mid-outage each shard keeps exactly one live copy: the one whose
        # host the rotation placed in the surviving zone.
        for shard, copies in enumerate(timeline.availability_at(0.4)):
            assert sum(copies) == 1
            live = copies.index(True)
            host = replication.hosts_of(shard)[live]
            assert TOPOLOGY_2Z.host_domain(host, DOMAIN_ZONE) == 1

    def test_metrics_and_tracer_observe_transfers(self):
        from repro.obs import MetricsRegistry, Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        replication = replicate_shards(PLAN_2, TOPOLOGY_2Z, 2)
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, TOPOLOGY_2Z, zone_crash(),
            tracer=tracer, metrics=registry, metrics_labels={"cell": "t"},
        )
        lost = registry.counter("serving.domains.lost_copies", cell="t")
        assert lost.value == len(timeline.transfers)
        redundancy = registry.gauge(
            "serving.domains.time_to_redundancy_s", cell="t"
        )
        assert redundancy.value == timeline.time_to_full_redundancy_s
        names = {span.name for span in tracer.spans}
        assert "serving.domains.transfer" in names


# -------------------------------------------------- cluster domain variants


BROADWELL_POOL = MachinePool(BROADWELL, 4)
SKYLAKE_POOL = MachinePool(SKYLAKE, 4)
DEMANDS = [
    WorkloadDemand(RMC1_SMALL, batch_size=4, sla=SLA(0.010), weight=1.0)
]
#: One rack per pool: rack 0 is the Broadwell pool, rack 1 the Skylake one.
RACK_ALIGNED = FleetTopology(
    num_replicas=8, replicas_per_host=1, hosts_per_rack=4, racks_per_zone=1
)


class TestClusterDomainVariants:
    def test_domain_failures_follow_topology(self):
        pools = [BROADWELL_POOL, SKYLAKE_POOL]
        assert domain_failures(pools, RACK_ALIGNED, DOMAIN_RACK, 0) == [4, 0]
        assert domain_failures(pools, RACK_ALIGNED, DOMAIN_RACK, 1) == [0, 4]
        assert domain_failures(pools, RACK_ALIGNED, DOMAIN_HOST, 5) == [0, 1]

    def test_rack_aligned_topology_reduces_to_pool_loss(self):
        """One rack per pool ⇒ the domain path equals the pool path."""
        pools = [BROADWELL_POOL, SKYLAKE_POOL]
        for domain_id, failures in ((0, [4, 0]), (1, [0, 4])):
            via_domain = domain_survivable_capacity(
                pools, DEMANDS, RACK_ALIGNED, DOMAIN_RACK, domain_id
            )
            via_pool = survivable_capacity(pools, DEMANDS, failures)
            assert via_domain.served_scale == via_pool.served_scale
            assert via_domain.assignment == via_pool.assignment

    def test_worst_domain_loss_orders_by_blast_radius(self):
        pools = [BROADWELL_POOL, SKYLAKE_POOL]
        host_loss = worst_single_domain_loss(
            pools, DEMANDS, RACK_ALIGNED, DOMAIN_HOST
        )
        rack_loss = worst_single_domain_loss(
            pools, DEMANDS, RACK_ALIGNED, DOMAIN_RACK
        )
        assert 0.0 < rack_loss <= host_loss

    def test_pool_topology_size_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="pools"):
            domain_failures(
                [BROADWELL_POOL], RACK_ALIGNED, DOMAIN_RACK, 0
            )


# --------------------------------------------------------- figure 11z run


class TestFigure11zLadder:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import fig11z_domains

        return fig11z_domains.run(duration_s=0.5)

    def test_zone_loss_collapses_unreplicated_placement(self, result):
        cell = result.cell("zone", 1)
        assert cell.stats.availability < 0.9
        assert cell.blackout_s > 0.0
        assert cell.lost_tables  # reads went partial during the blackout

    def test_zone_spread_k2_survives_the_same_trace(self, result):
        cell = result.cell("zone", 2)
        assert cell.spread == DOMAIN_ZONE
        assert cell.stats.availability >= 0.99
        assert cell.summary.p99 <= result.sla_deadline_s
        assert cell.blackout_s == 0.0
        assert 0.0 < cell.time_to_full_redundancy_s < float("inf")
        assert cell.recovery_transfers > 0

    def test_replication_never_hurts_availability(self, result):
        for scenario in ("rack", "zone"):
            k1 = result.cell(scenario, 1).stats.availability
            k2 = result.cell(scenario, 2).stats.availability
            assert k2 >= k1

    def test_render_leads_with_the_headline(self, result):
        from repro.experiments import fig11z_domains

        text = fig11z_domains.render(result)
        assert "zone loss" in text
        assert "k=1 availability" in text
