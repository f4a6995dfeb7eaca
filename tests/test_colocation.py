"""Unit tests for the contention model."""

import math

import numpy as np
import pytest

from repro.config import RMC2_SMALL
from repro.hw import (
    BROADWELL,
    ColocationState,
    ContentionModel,
    HASWELL,
    SKYLAKE,
    TimingModel,
)


class TestColocationState:
    def test_defaults(self):
        state = ColocationState()
        assert state.num_jobs == 1
        assert not state.hyperthreading

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ColocationState(num_jobs=0)

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            ColocationState(corunner_random_gbps=-1.0)

    def test_rejects_negative_resident(self):
        with pytest.raises(ValueError):
            ColocationState(resident_bytes_per_job=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("corunner_random_gbps", math.nan),
            ("corunner_random_gbps", math.inf),
            ("resident_bytes_per_job", math.nan),
            ("resident_bytes_per_job", math.inf),
            ("num_jobs", math.nan),
            ("num_jobs", math.inf),
            ("num_jobs", 2.5),
        ],
    )
    def test_rejects_hostile_values_before_pricing(self, field, value):
        """nan used to price silently, inf to inf or ZeroDivisionError."""
        tm = TimingModel(BROADWELL)
        state = tm.colocation_state(RMC2_SMALL, 32, 4)
        kwargs = {
            "num_jobs": state.num_jobs,
            "resident_bytes_per_job": state.resident_bytes_per_job,
            "corunner_random_gbps": state.corunner_random_gbps,
            field: value,
        }
        with pytest.raises(ValueError, match=field):
            ColocationState(**kwargs)

    def test_accepts_numpy_integer_jobs(self):
        state = ColocationState(num_jobs=np.int64(4))
        assert ContentionModel(BROADWELL).llc_share_bytes(state) == (
            BROADWELL.l3_bytes / 4
        )


class TestChurn:
    def test_zero_when_alone(self):
        cm = ContentionModel(BROADWELL)
        assert cm.llc_churn(ColocationState(num_jobs=1)) == 0.0

    def test_zero_when_corunners_quiet(self):
        cm = ContentionModel(BROADWELL)
        state = ColocationState(num_jobs=8, corunner_random_gbps=0.0)
        assert cm.llc_churn(state) == 0.0

    def test_saturates_at_one(self):
        cm = ContentionModel(BROADWELL)
        state = ColocationState(num_jobs=24, corunner_random_gbps=5.0)
        assert cm.llc_churn(state) == 1.0

    def test_monotone_in_jobs(self):
        cm = ContentionModel(BROADWELL)
        values = [
            cm.llc_churn(ColocationState(num_jobs=n, corunner_random_gbps=1.0))
            for n in (1, 2, 4, 8)
        ]
        assert values == sorted(values)


class TestInclusivePenalties:
    def test_exclusive_hierarchy_has_no_back_invalidation(self):
        cm = ContentionModel(SKYLAKE)
        state = ColocationState(num_jobs=16, corunner_random_gbps=2.0)
        assert cm.l2_back_invalidation_penalty(state) == 0.0
        assert cm.inclusive_dram_penalty(state) == 0.0

    def test_inclusive_hierarchy_penalized(self):
        cm = ContentionModel(BROADWELL)
        state = ColocationState(num_jobs=16, corunner_random_gbps=2.0)
        assert cm.l2_back_invalidation_penalty(state) > 0
        assert cm.inclusive_dram_penalty(state) > 0


class TestOverflow:
    def test_no_overflow_when_fitting(self):
        cm = ContentionModel(SKYLAKE)
        state = ColocationState(num_jobs=4, resident_bytes_per_job=1024)
        assert cm.llc_overflow(state) == 0.0

    def test_skylake_overflows_before_broadwell(self):
        """Skylake's LLC (27.5 MB) is the smallest: the Figure-10 cliff."""
        mb = 1024 * 1024
        state = ColocationState(num_jobs=20, resident_bytes_per_job=int(1.5 * mb))
        assert ContentionModel(SKYLAKE).llc_overflow(state) > 0
        assert ContentionModel(BROADWELL).llc_overflow(state) == 0.0


class TestBandwidth:
    def test_random_capacity_ordering(self):
        caps = {
            s.name: ContentionModel(s).random_access_capacity()
            for s in (HASWELL, BROADWELL, SKYLAKE)
        }
        assert caps["Haswell"] < caps["Broadwell"] < caps["Skylake"]

    def test_share_full_capacity_when_unsaturated(self):
        cm = ContentionModel(BROADWELL)
        share = cm.random_bandwidth_share(ColocationState(num_jobs=1), 1e9)
        assert share == pytest.approx(cm.random_access_capacity())

    def test_share_proportional_when_saturated(self):
        cm = ContentionModel(BROADWELL)
        state = ColocationState(num_jobs=30, corunner_random_gbps=2.0)
        share = cm.random_bandwidth_share(state, 2e9)
        assert share == pytest.approx(cm.random_access_capacity() / 30, rel=0.01)

    def test_stream_bandwidth_divided(self):
        cm = ContentionModel(BROADWELL)
        alone = cm.stream_bandwidth_share(ColocationState(num_jobs=1))
        shared = cm.stream_bandwidth_share(ColocationState(num_jobs=4))
        assert shared == pytest.approx(alone / 4)

    def test_llc_gather_share_caps_per_core(self):
        cm = ContentionModel(BROADWELL)
        alone = cm.llc_gather_bandwidth_share(ColocationState(num_jobs=1))
        shared = cm.llc_gather_bandwidth_share(ColocationState(num_jobs=8))
        assert shared < alone


class TestMlp:
    def test_batch_mlp_monotone(self):
        cm = ContentionModel(BROADWELL)
        alone = ColocationState(num_jobs=1)
        values = [cm.memory_level_parallelism(alone, b) for b in (1, 16, 64, 256)]
        assert values == sorted(values)

    def test_skylake_mlp_ramps_later(self):
        """Skylake's gather path amortizes later (its Figure-8 deficit)."""
        alone = ColocationState(num_jobs=1)
        bdw = ContentionModel(BROADWELL).memory_level_parallelism(alone, 16)
        skl = ContentionModel(SKYLAKE).memory_level_parallelism(alone, 16)
        assert skl < bdw

    def test_mlp_collapses_under_churn(self):
        cm = ContentionModel(BROADWELL)
        alone = cm.memory_level_parallelism(ColocationState(num_jobs=1), 32)
        loaded = cm.memory_level_parallelism(
            ColocationState(num_jobs=8, corunner_random_gbps=2.0), 32
        )
        assert loaded < alone
        assert loaded >= 1.0


class TestFcContentionFactor:
    MB = 1024 * 1024

    def busy(self, server, n):
        return ColocationState(num_jobs=n, corunner_random_gbps=2.0)

    def test_l2_resident_weights_protected(self):
        cm = ContentionModel(SKYLAKE)
        factor = cm.fc_contention_factor(self.busy(SKYLAKE, 16), 1024 * 1024)
        assert factor == pytest.approx(1.0)

    def test_512x512_fc_fits_skylake_l2_not_broadwell(self):
        """The Figure 11a annotation."""
        weights = (512 * 512 + 512) * 4
        state_s = self.busy(SKYLAKE, 16)
        state_b = self.busy(BROADWELL, 16)
        skl = ContentionModel(SKYLAKE).fc_contention_factor(state_s, weights)
        bdw = ContentionModel(BROADWELL).fc_contention_factor(state_b, weights)
        assert skl == pytest.approx(1.0)
        assert bdw > 1.4

    def test_llc_resident_worse_on_inclusive(self):
        weights = 4 * self.MB
        skl = ContentionModel(SKYLAKE).fc_contention_factor(self.busy(SKYLAKE, 4), weights)
        bdw = ContentionModel(BROADWELL).fc_contention_factor(self.busy(BROADWELL, 4), weights)
        assert bdw > skl > 1.0

    def test_factor_is_one_alone(self):
        cm = ContentionModel(BROADWELL)
        assert cm.fc_contention_factor(ColocationState(num_jobs=1), 4 * self.MB) == 1.0
