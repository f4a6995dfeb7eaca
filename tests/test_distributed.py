"""Tests for sharded (distributed) inference."""

import math

import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    FleetTopology,
    NetworkConfig,
    distributed_latency,
    min_shards_for_capacity,
    replicate_shards,
    shard_tables,
    sharding_sweep,
)


class TestShardPlan:
    def test_all_tables_assigned(self):
        plan = shard_tables(RMC2_SMALL, 4)
        assert len(plan.table_assignment) == RMC2_SMALL.num_tables
        assert set(plan.table_assignment) == {0, 1, 2, 3}

    def test_balanced_for_uniform_tables(self):
        plan = shard_tables(RMC2_SMALL, 4)
        counts = [len(plan.tables_of(s)) for s in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_single_shard(self):
        plan = shard_tables(RMC2_SMALL, 1)
        assert set(plan.table_assignment) == {0}

    def test_more_shards_than_tables(self):
        plan = shard_tables(RMC1_SMALL, 8)
        used = {s for s in plan.table_assignment}
        assert len(used) == RMC1_SMALL.num_tables  # one table each

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_tables(RMC2_SMALL, 0)


class TestCapacityPlanning:
    def test_small_model_needs_one_shard(self):
        assert min_shards_for_capacity(RMC2_SMALL, BROADWELL) == 1

    def test_shard_count_grows_with_shrinking_budget(self):
        # Squeeze the usable DRAM until RMC2's ~10 GB of tables must split.
        table_bytes = RMC2_SMALL.embedding_tables[0].storage_bytes()
        tight = table_bytes * 3 / BROADWELL.dram_capacity_bytes
        shards = min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=tight)
        assert shards >= RMC2_SMALL.num_tables // 3
        plan = shard_tables(RMC2_SMALL, shards)
        budget = int(BROADWELL.dram_capacity_bytes * tight)
        for shard in range(plan.num_shards):
            owned = sum(
                RMC2_SMALL.embedding_tables[i].storage_bytes()
                for i in plan.tables_of(shard)
            )
            assert owned <= budget

    def test_table_larger_than_budget_is_rejected(self):
        table_bytes = RMC2_SMALL.embedding_tables[0].storage_bytes()
        too_tight = table_bytes * 0.5 / BROADWELL.dram_capacity_bytes
        with pytest.raises(ValueError):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=too_tight)

    def test_rejects_bad_headroom(self):
        with pytest.raises(ValueError):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=0.0)

    def test_rejects_negative_headroom(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=-0.5)

    def test_rejects_headroom_above_one(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=1.5)

    def test_accepts_full_headroom(self):
        assert min_shards_for_capacity(RMC2_SMALL, BROADWELL, dram_headroom=1.0) == 1


class TestDistributedLatency:
    def test_sharding_reduces_sls_time(self):
        results = sharding_sweep(BROADWELL, RMC2_SMALL, 32, [1, 2, 4, 10])
        sls_times = [r.slowest_shard_seconds for r in results]
        assert sls_times == sorted(sls_times, reverse=True)
        assert sls_times[-1] < 0.3 * sls_times[0]

    def test_single_shard_has_no_network(self):
        result = distributed_latency(
            BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 1)
        )
        assert result.network_seconds == 0.0

    def test_network_cost_appears_with_shards(self):
        result = distributed_latency(
            BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 4)
        )
        assert result.network_seconds > 0

    def test_diminishing_returns(self):
        """Beyond enough shards, network + dense compute dominate."""
        results = sharding_sweep(BROADWELL, RMC2_SMALL, 32, [1, 2, 4, 10, 20])
        total = [r.total_seconds for r in results]
        gain_first = total[0] / total[1]
        gain_last = total[-2] / total[-1]
        assert gain_first > gain_last

    def test_sharding_can_unlock_cache_residency(self):
        """Each shard holds a slice of the tables; small enough slices
        become LLC-resident, compounding the win."""
        one = distributed_latency(BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 1))
        many = distributed_latency(
            BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 20)
        )
        assert many.total_seconds < one.total_seconds

    def test_slow_network_erases_the_win(self):
        slow = NetworkConfig(rtt_s=0.050, bandwidth_bytes_per_s=1e6)
        result = distributed_latency(
            BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 4), slow
        )
        single = distributed_latency(
            BROADWELL, RMC2_SMALL, 32, shard_tables(RMC2_SMALL, 1)
        )
        assert result.total_seconds > single.total_seconds

    def test_rejects_mismatched_plan(self):
        plan = shard_tables(RMC1_SMALL, 2)
        with pytest.raises(ValueError):
            distributed_latency(BROADWELL, RMC2_SMALL, 32, plan)

    def test_rejects_bad_network(self):
        with pytest.raises(ValueError):
            NetworkConfig(rtt_s=-1)


def _replicate(factor):
    plan = shard_tables(RMC1_SMALL, 2)
    return replicate_shards(plan, FleetTopology(num_replicas=8), factor)


def _price(batch_size):
    plan = shard_tables(RMC1_SMALL, 2)
    return distributed_latency(BROADWELL, RMC1_SMALL, batch_size, plan)


@pytest.mark.parametrize(
    "build, field",
    [
        # A fractional shard count raised a TypeError; True built a plan
        # of True shards.
        pytest.param(
            lambda: shard_tables(RMC1_SMALL, 2.5), "num_shards",
            id="shards-fractional",
        ),
        pytest.param(
            lambda: shard_tables(RMC1_SMALL, True), "num_shards",
            id="shards-bool",
        ),
        # 2.5 copies raised a TypeError; True built a plan of True copies.
        pytest.param(
            lambda: _replicate(2.5), "replication_factor",
            id="replication-fractional",
        ),
        pytest.param(
            lambda: _replicate(True), "replication_factor",
            id="replication-bool",
        ),
        # A fractional batch priced a fractional inference, and True a
        # batch of one.
        pytest.param(lambda: _price(2.5), "batch_size", id="batch-fractional"),
        pytest.param(lambda: _price(True), "batch_size", id="batch-bool"),
        # A nan link made every transfer nan, an infinite RTT every one inf.
        pytest.param(
            lambda: NetworkConfig(rtt_s=math.nan), "rtt_s", id="rtt-nan"
        ),
        pytest.param(
            lambda: NetworkConfig(rtt_s=math.inf), "rtt_s", id="rtt-inf"
        ),
        pytest.param(
            lambda: NetworkConfig(bandwidth_bytes_per_s=math.nan),
            "bandwidth_bytes_per_s",
            id="bandwidth-nan",
        ),
    ],
)
def test_hostile_input_names_its_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()
