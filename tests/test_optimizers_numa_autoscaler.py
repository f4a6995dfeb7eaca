"""Tests for optimizers, NUMA placement, and the autoscaler."""

import itertools
import math
import re

import numpy as np
import pytest

from repro.config import MLPConfig, ModelConfig, RMC2_SMALL, RMC3_SMALL, uniform_tables
from repro.core import RecommendationModel
from repro.data import SyntheticCtrDataset
from repro.hw import BROADWELL
from repro.hw.numa import PLACEMENTS, numa_latency, placement_comparison
from repro.serving.autoscaler import Autoscaler, DiurnalLoad, static_provisioning
from repro.train import Adagrad, MomentumSGD, SGD, TrainableDLRM, Trainer


def tiny_config():
    return ModelConfig(
        name="tiny",
        model_class="RMC1",
        dense_features=6,
        bottom_mlp=MLPConfig([12, 8]),
        embedding_tables=uniform_tables(2, 50, 8, 3),
        top_mlp=MLPConfig([8, 1], final_activation="sigmoid"),
    )


class TestOptimizers:
    @pytest.mark.parametrize("optimizer_factory", [
        lambda: SGD(0.3),
        lambda: MomentumSGD(0.05, momentum=0.9),
        lambda: Adagrad(0.3),
    ], ids=["sgd", "momentum", "adagrad"])
    def test_all_optimizers_reduce_loss(self, optimizer_factory):
        config = tiny_config()
        dataset = SyntheticCtrDataset(config, signal_scale=2.0, seed=8)
        trainer = Trainer(
            TrainableDLRM(RecommendationModel(config)),
            dataset,
            optimizer=optimizer_factory(),
        )
        report = trainer.fit(steps=200, batch_size=128, eval_samples=1000)
        assert report.final_loss < report.initial_loss - 0.03
        assert report.eval_auc > 0.6

    def test_adagrad_state_is_sparse(self):
        config = tiny_config()
        dataset = SyntheticCtrDataset(config, seed=8)
        adagrad = Adagrad(0.1)
        trainer = Trainer(
            TrainableDLRM(RecommendationModel(config)), dataset, optimizer=adagrad
        )
        trainer.fit(steps=3, batch_size=4, eval_samples=100)
        # Only rows touched by 3 tiny batches carry accumulator entries.
        assert 0 < adagrad.touched_rows(0) <= 3 * 4 * 3

    def test_adagrad_shrinks_effective_step(self):
        """Repeated identical gradients must shrink the applied update."""
        config = tiny_config()
        model = RecommendationModel(config)
        trainable = TrainableDLRM(model)
        dataset = SyntheticCtrDataset(config, seed=4)
        batch = dataset.batch(16)
        adagrad = Adagrad(0.5)
        from repro.train.losses import bce_with_logits_grad

        deltas = []
        for _ in range(3):
            logits, cache = trainable.forward_logits(batch.dense, batch.sparse)
            grads = trainable.backward(
                bce_with_logits_grad(logits, batch.labels), cache
            )
            before = model.bottom_ops[0].weight.copy()
            adagrad.apply(model, grads)
            deltas.append(np.abs(model.bottom_ops[0].weight - before).mean())
        assert deltas[2] < deltas[0]

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            MomentumSGD(0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adagrad(0.1, eps=0.0)


class TestNuma:
    def test_local_fastest_remote_slowest(self):
        results = placement_comparison(BROADWELL, RMC2_SMALL, 32)
        assert (
            results["local"].total_seconds
            < results["interleave"].total_seconds
            < results["remote"].total_seconds
        )

    def test_compute_bound_model_insensitive(self):
        results = placement_comparison(BROADWELL, RMC3_SMALL, 32)
        spread = results["remote"].total_seconds / results["local"].total_seconds
        assert spread < 1.15  # RMC3 barely touches DRAM for embeddings

    def test_memory_bound_model_sensitive(self):
        results = placement_comparison(BROADWELL, RMC2_SMALL, 32)
        spread = results["remote"].total_seconds / results["local"].total_seconds
        assert spread > 1.3

    def test_all_placements_enumerated(self):
        assert set(PLACEMENTS) == {"local", "remote", "interleave"}

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            numa_latency(BROADWELL, RMC2_SMALL, 32, placement="far")


class TestAutoscaler:
    @pytest.fixture(scope="class")
    def setup(self):
        scaler = Autoscaler(BROADWELL, RMC2_SMALL, batch_size=32)
        load = DiurnalLoad(peak_items_per_s=20 * scaler.replica_capacity)
        return scaler, load

    def test_diurnal_load_shape(self):
        load = DiurnalLoad(peak_items_per_s=100.0, trough_ratio=0.5)
        assert load.at(0.0) == pytest.approx(50.0)
        assert load.at(12.0) == pytest.approx(100.0)

    def test_fleet_follows_demand(self, setup):
        scaler, load = setup
        result = scaler.run(load)
        replicas = [s.replicas for s in result.steps]
        assert max(replicas) > 1.5 * min(replicas)

    def test_autoscaling_cheaper_than_static(self, setup):
        scaler, load = setup
        dynamic = scaler.run(load)
        static = static_provisioning(scaler, load)
        assert dynamic.machine_hours < 0.85 * static.machine_hours

    def test_static_never_violates(self, setup):
        scaler, load = setup
        static = static_provisioning(scaler, load)
        assert static.violation_fraction == 0.0

    def test_dynamic_violations_bounded(self, setup):
        scaler, load = setup
        result = scaler.run(load)
        assert result.violation_fraction < 0.1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Autoscaler(BROADWELL, RMC2_SMALL, target_utilization=0.9,
                       sla_utilization=0.8)
        with pytest.raises(ValueError):
            DiurnalLoad(peak_items_per_s=0)

    @pytest.fixture
    def bounded_load(self, monkeypatch):
        """Fail, rather than hang, a run whose tick loop never ends."""
        calls = itertools.count()
        at = DiurnalLoad.at

        def bounded(load, hour):
            if next(calls) > 100_000:
                raise AssertionError("the run did not stop")
            return at(load, hour)

        monkeypatch.setattr(DiurnalLoad, "at", bounded)

    @pytest.mark.parametrize(
        "call, field",
        [
            pytest.param(
                lambda s, load: s.run(load, hours=math.inf),
                "Autoscaler.run.hours", id="run-hours-inf",
            ),
            pytest.param(
                lambda s, load: s.run(load, hours=math.nan),
                "Autoscaler.run.hours", id="run-hours-nan",
            ),
            pytest.param(
                lambda s, load: s.run(load, tick_hours=math.nan),
                "Autoscaler.run.tick_hours", id="run-tick-nan",
            ),
            pytest.param(
                lambda s, load: static_provisioning(s, load, hours=math.inf),
                "static_provisioning.hours", id="static-hours-inf",
            ),
            pytest.param(
                lambda s, load: static_provisioning(s, load, tick_hours=0.0),
                "static_provisioning.tick_hours", id="static-tick-zero",
            ),
            pytest.param(
                lambda s, load: DiurnalLoad(100.0, period_hours=0.0).at(1.0),
                "DiurnalLoad.period_hours", id="period-zero",
            ),
            pytest.param(
                lambda s, load: DiurnalLoad(100.0, period_hours=math.nan),
                "DiurnalLoad.period_hours", id="period-nan",
            ),
            pytest.param(
                lambda s, load: s.run(DiurnalLoad(math.inf)),
                "DiurnalLoad.peak_items_per_s", id="peak-inf",
            ),
            pytest.param(
                lambda s, load: Autoscaler(BROADWELL, RMC2_SMALL, batch_size=2.5),
                "Autoscaler.batch_size", id="batch-fractional",
            ),
            pytest.param(
                lambda s, load: Autoscaler(BROADWELL, RMC2_SMALL, min_replicas=2.5),
                "Autoscaler.min_replicas", id="min-replicas-fractional",
            ),
            pytest.param(
                lambda s, load: Autoscaler(
                    BROADWELL, RMC2_SMALL, provision_delay_hours=math.nan
                ),
                "Autoscaler.provision_delay_hours", id="delay-nan",
            ),
        ],
    )
    def test_hostile_input_names_its_field(self, setup, bounded_load, call, field):
        scaler, load = setup
        with pytest.raises(ValueError, match=re.escape(field)):
            call(scaler, load)

    def test_edge_inputs_stay_valid(self, setup):
        _, load = setup
        scaler = Autoscaler(
            BROADWELL, RMC2_SMALL, batch_size=np.int64(32),
            provision_delay_hours=0.0, min_replicas=np.int64(2),
        )
        steps = scaler.run(load, hours=1.0, tick_hours=0.5).steps
        assert [s.hour for s in steps] == [0.0, 0.5]
        assert min(s.replicas for s in steps) >= 2
