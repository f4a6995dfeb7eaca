"""Fleet-level cycle accounting (Figures 1 and 4).

Figure 1 reports how AI inference cycles split across model classes in the
production fleet: RMC1+RMC2+RMC3 consume ~65%, other recommendation models
bring the recommendation total to ~79%, and the remainder runs CNNs/RNNs.
Figure 4 splits the same cycles by *operator* (FC, SLS, Concat, ...), with
SLS alone near 15% of all AI inference cycles — 4x the Conv share and 20x
the Recurrent share.

:class:`Fleet` combines a service mix (shares of total inference cycles)
with per-service operator breakdowns — derived from the timing model for
recommendation services and from per-layer cost models for the CNN/RNN
services — to regenerate both figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.model_config import ModelConfig
from ..config.presets import RMC1_LARGE, RMC1_SMALL, RMC2_LARGE, RMC2_SMALL, RMC3_SMALL
from ..core.operators.base import OP_ACTIVATION, OP_CONV, OP_FC, OP_OTHER, OP_RECURRENT
from ..hw.server import BROADWELL, ServerSpec
from ..hw.timing import TimingModel


@dataclass(frozen=True)
class FleetService:
    """One service in the data-center mix.

    Attributes:
        name: service label.
        model_class: "RMC1"/"RMC2"/"RMC3"/"OtherRM"/"CNN"/"RNN".
        cycles_share: fraction of fleet AI-inference cycles.
        operator_fractions: share of this service's cycles per operator.
    """

    name: str
    model_class: str
    cycles_share: float
    operator_fractions: dict[str, float]

    @property
    def is_recommendation(self) -> bool:
        """True for recommendation services (RMC* and other RMs)."""
        return self.model_class not in ("CNN", "RNN", "MLP")


class Fleet:
    """A weighted collection of services (the data-center AI mix)."""

    def __init__(self, services: list[FleetService]) -> None:
        if not services:
            raise ValueError("fleet needs at least one service")
        total = sum(s.cycles_share for s in services)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"cycle shares must sum to 1, got {total}")
        self.services = list(services)

    # -------------------------------------------------------------- figure 1

    def cycles_by_model_class(self) -> dict[str, float]:
        """Fraction of AI cycles per model class (Figure 1)."""
        out: dict[str, float] = {}
        for service in self.services:
            out[service.model_class] = (
                out.get(service.model_class, 0.0) + service.cycles_share
            )
        return out

    def recommendation_share(self) -> float:
        """Total share of cycles spent on recommendation models."""
        return sum(s.cycles_share for s in self.services if s.is_recommendation)

    def rmc_core_share(self) -> float:
        """Share consumed by the three studied classes (RMC1+RMC2+RMC3)."""
        return sum(
            s.cycles_share
            for s in self.services
            if s.model_class in ("RMC1", "RMC2", "RMC3")
        )

    # -------------------------------------------------------------- figure 4

    def cycles_by_operator(self, recommendation_only: bool | None = None) -> dict[str, float]:
        """Fleet-wide cycle share per operator category (Figure 4).

        Args:
            recommendation_only: True → only recommendation services,
                False → only non-recommendation, None → everything.
        """
        out: dict[str, float] = {}
        for service in self.services:
            if recommendation_only is True and not service.is_recommendation:
                continue
            if recommendation_only is False and service.is_recommendation:
                continue
            for op_type, fraction in service.operator_fractions.items():
                out[op_type] = out.get(op_type, 0.0) + service.cycles_share * fraction
        return out


#: Fraction of a production recommendation service's cycles spent outside
#: model operators (feature transforms, embedding-ID preprocessing, memory
#: copies, RPC (de)serialization) — the "Other" bar of Figure 4.
PRODUCTION_OTHER_FRACTION = 0.35


def _model_operator_fractions(
    server: ServerSpec, config: ModelConfig, batch_size: int
) -> dict[str, float]:
    """Operator mix of a production service built on ``config``.

    The timing model gives the in-model split; production services wrap it
    with framework work accounted as ``Other``.
    """
    model = TimingModel(server).model_latency(config, batch_size).fraction_by_op_type()
    scaled = {k: v * (1.0 - PRODUCTION_OTHER_FRACTION) for k, v in model.items()}
    scaled[OP_OTHER] = scaled.get(OP_OTHER, 0.0) + PRODUCTION_OTHER_FRACTION
    return scaled


#: Operator mix of CNN services, from ResNet50-style layer cost accounting:
#: convolutions dominate, with a classifier FC and element-wise layers.
CNN_OPERATOR_FRACTIONS = {OP_CONV: 0.82, OP_FC: 0.06, OP_ACTIVATION: 0.07, OP_OTHER: 0.05}

#: Operator mix of RNN services (GNMT/speech): recurrent cells dominate,
#: with embedding/projection FC layers.
RNN_OPERATOR_FRACTIONS = {
    OP_RECURRENT: 0.72,
    OP_FC: 0.18,
    OP_ACTIVATION: 0.06,
    OP_OTHER: 0.04,
}


def production_fleet(
    server: ServerSpec = BROADWELL, batch_size: int = 16
) -> Fleet:
    """The paper's production mix with derived operator breakdowns.

    Cycle shares follow Figure 1: the three studied classes consume 65% of
    AI inference cycles (split across small/large variants), other
    recommendation models 14% (bringing recommendation to 79%), and
    non-recommendation services the remaining 21% — mostly FC-heavy MLP
    services plus smaller CNN and RNN deployments, sized so that Figure 4's
    contrast holds (SLS ~15% of all AI cycles, about 4x the Conv share and
    20x the Recurrent share).
    """
    def rec(name: str, cls: str, share: float, config: ModelConfig) -> FleetService:
        return FleetService(
            name=name,
            model_class=cls,
            cycles_share=share,
            operator_fractions=_model_operator_fractions(server, config, batch_size),
        )

    other_rm_fractions = _model_operator_fractions(server, RMC1_SMALL, batch_size)
    services = [
        rec("rmc1-small", "RMC1", 0.22, RMC1_SMALL),
        rec("rmc1-large", "RMC1", 0.13, RMC1_LARGE),
        rec("rmc2-small", "RMC2", 0.12, RMC2_SMALL),
        rec("rmc2-large", "RMC2", 0.08, RMC2_LARGE),
        rec("rmc3", "RMC3", 0.10, RMC3_SMALL),
        FleetService("other-rm", "OtherRM", 0.14, other_rm_fractions),
        FleetService(
            "mlp-services",
            "MLP",
            0.15,
            {OP_FC: 0.80, OP_ACTIVATION: 0.08, OP_OTHER: 0.12},
        ),
        FleetService("vision", "CNN", 0.045, dict(CNN_OPERATOR_FRACTIONS)),
        FleetService("language", "RNN", 0.015, dict(RNN_OPERATOR_FRACTIONS)),
    ]
    return Fleet(services)
