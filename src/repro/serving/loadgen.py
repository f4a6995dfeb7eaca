"""Load generation for serving simulations.

Two arrival sources:

* :func:`poisson_arrival_times` (and :class:`PoissonLoadGenerator` over
  it) — open-loop arrivals at a constant rate, the regime data-center
  front-ends see; exposes queueing delay.
* :class:`DiurnalLoadGenerator` — open-loop Poisson by thinning against
  a sinusoidal day/night baseline (the paper's fleets provision for the
  diurnal peak) times any :class:`LoadSpike` multipliers. At
  ``amplitude=0.0`` it gives the flat failover / retry-storm /
  flash-crowd shapes the fault layer (:mod:`repro.serving.faults`)
  stresses fleets with. :class:`MixedModelLoadGenerator` thins one such
  sinusoid per model class into one tagged trace.

Closed-loop serving (each co-located job always busy, as in the paper's
co-location experiments) is ``ServingSimulator(per_instance_qps=None)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data.sparse import _integer


def _require_finite(owner: str, **fields: float | None) -> None:
    """Reject ``inf``/``nan`` in the named fields (``None`` passes)."""
    for name, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{owner}.{name} must be finite, got {value!r}")


def _require_seed(owner: str, seed) -> None:
    """Reject a seed that is not a non-negative integer (numpy ints pass)."""
    if _integer(f"{owner}.seed", seed) < 0:
        raise ValueError(f"{owner}.seed must be non-negative, got {seed!r}")


def _require_counts(owner: str, **counts: int) -> None:
    """Reject a count that is not a non-negative integer (numpy ints pass)."""
    for name, value in counts.items():
        if _integer(f"{owner}.{name}", value) < 0:
            raise ValueError(f"{owner}.{name} must be non-negative, got {value!r}")


def _require_duration(owner: str, duration_s: float) -> None:
    """Reject a non-finite or non-positive generation horizon."""
    _require_finite(owner, duration_s=duration_s)
    if duration_s <= 0:
        raise ValueError("duration must be positive")


@dataclass(frozen=True)
class Query:
    """One inference request.

    Attributes:
        query_id: unique id.
        arrival_s: arrival time (seconds since simulation start).
        num_items: user-post pairs to rank (the batch this query carries).
    """

    query_id: int
    arrival_s: float
    num_items: int

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")
        if self.num_items < 1:
            raise ValueError("a query must carry at least one item")


def poisson_arrival_times(
    rng: np.random.Generator,
    rate_qps: float,
    duration_s: float,
    chunk: int = 8192,
) -> np.ndarray:
    """Arrival times of a Poisson process, bit-identical to the scalar loop.

    Reproduces exactly::

        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_qps))
            if t >= duration_s:
                break
            times.append(t)

    both in values (``cumsum`` over a concatenation that includes the
    running offset reproduces scalar float accumulation bit for bit) and
    in the generator's final state (the last chunk is rolled back and
    re-drawn at the exact scalar count, including the draw that crossed
    the horizon).
    """
    scale = 1.0 / rate_qps
    out = []
    t = 0.0
    while True:
        state = rng.bit_generator.state
        gaps = rng.exponential(scale, size=chunk)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        crossed = int(np.searchsorted(times, duration_s, side="left"))
        if crossed < chunk:
            rng.bit_generator.state = state
            rng.exponential(scale, size=crossed + 1)
            out.append(times[:crossed])
            break
        out.append(times)
        t = float(times[-1])
    return np.concatenate(out) if len(out) > 1 else out[0]


class PoissonLoadGenerator:
    """Open-loop Poisson arrivals.

    Args:
        rate_qps: mean arrival rate (queries per second).
        num_items: items per query.
        seed: RNG seed.
    """

    def __init__(self, rate_qps: float, num_items: int = 1, seed: int = 0) -> None:
        _require_finite("PoissonLoadGenerator", rate_qps=rate_qps)
        _require_seed("PoissonLoadGenerator", seed)
        if rate_qps <= 0:
            raise ValueError("rate must be positive")
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.rate_qps = rate_qps
        self.num_items = num_items
        self._rng = np.random.default_rng(seed)

    def generate(self, duration_s: float) -> list[Query]:
        """All queries arriving within ``duration_s``."""
        _require_duration("PoissonLoadGenerator.generate", duration_s)
        times = poisson_arrival_times(self._rng, self.rate_qps, duration_s)
        return [
            Query(query_id=qid, arrival_s=t, num_items=self.num_items)
            for qid, t in enumerate(times.tolist())
        ]


@dataclass(frozen=True)
class LoadSpike:
    """One interval during which the offered rate is multiplied.

    Attributes:
        start_s: spike onset.
        duration_s: spike length.
        multiplier: rate multiplier while active (>= 0; a multiplier below
            1 models a brown-out where upstream sheds load).
    """

    start_s: float
    duration_s: float
    multiplier: float

    def __post_init__(self) -> None:
        _require_finite(
            "LoadSpike",
            start_s=self.start_s,
            duration_s=self.duration_s,
            multiplier=self.multiplier,
        )
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("spike interval must be non-negative/positive")
        if self.multiplier < 0:
            raise ValueError("spike multiplier must be non-negative")


def _diurnal_rate(
    t_s: float, mean_qps: float, amplitude: float, period_s: float,
    phase_s: float, spikes: tuple[LoadSpike, ...] = (),
) -> float:
    """The diurnal sinusoid at ``t_s``, times every active spike's multiplier."""
    rate = mean_qps * (
        1.0
        + amplitude * float(np.sin(2.0 * np.pi * (t_s - phase_s) / period_s))
    )
    for spike in spikes:
        if spike.start_s <= t_s < spike.start_s + spike.duration_s:
            rate *= spike.multiplier
    return rate


def _diurnal_envelope(
    mean_qps: float, amplitude: float, spikes: tuple[LoadSpike, ...] = ()
) -> float:
    """Upper bound on :func:`_diurnal_rate` (the thinning envelope)."""
    rate = mean_qps * (1.0 + amplitude)
    # Overlapping spikes compound, so the bound multiplies every above-1
    # multiplier together.
    for spike in spikes:
        if spike.multiplier > 1.0:
            rate *= spike.multiplier
    return rate


def _thinned_arrivals(
    rng: np.random.Generator,
    rate_at,
    envelope_qps: float,
    duration_s: float,
) -> list[float]:
    """Arrival times of an exact time-varying Poisson stream, by thinning.

    Candidates are drawn at the constant ``envelope_qps`` and accepted
    with probability ``rate_at(t) / envelope_qps``. Both draws happen for
    every candidate, so the stream is fully determined by the generator's
    seed regardless of the rate profile.
    """
    if not math.isfinite(envelope_qps):
        # Finite fields whose product overflows (e.g. compounding spikes).
        raise ValueError(f"peak rate must be finite, got {envelope_qps!r}")
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / envelope_qps))
        if t >= duration_s:
            break
        if float(rng.uniform()) < rate_at(t) / envelope_qps:
            times.append(t)
    return times


class DiurnalLoadGenerator:
    """Poisson arrivals riding a sinusoidal day/night cycle.

    The instantaneous rate is

    ``mean_qps * (1 + amplitude * sin(2π * (t - phase_s) / period_s))``

    times any active spike multipliers, realized exactly by thinning
    against the peak-rate envelope, so the stream is a pure function of
    ``seed``. At ``amplitude=0.0`` the rate is ``mean_qps`` outside every
    spike: the flat flash-crowd and brown-out shape. Composing a
    :class:`LoadSpike` onto the diurnal peak yields the flash-crowd
    traces the overload layer (:mod:`repro.serving.overload`) is
    stress-tested with.

    Args:
        mean_qps: cycle-average rate.
        amplitude: relative swing, in ``[0, 1]`` (1 means the trough
            reaches zero qps).
        period_s: cycle length (86400 for a literal day; simulations
            usually compress it).
        phase_s: time of the cycle's zero-crossing on the way up.
        spikes: rate-multiplier intervals, compounding with the sinusoid
            (and with each other where they overlap).
        num_items: items per query.
        seed: RNG seed.
    """

    def __init__(
        self,
        mean_qps: float,
        amplitude: float = 0.5,
        period_s: float = 86_400.0,
        phase_s: float = 0.0,
        spikes: tuple[LoadSpike, ...] | list[LoadSpike] = (),
        num_items: int = 1,
        seed: int = 0,
    ) -> None:
        _require_finite(
            "DiurnalLoadGenerator",
            mean_qps=mean_qps,
            amplitude=amplitude,
            period_s=period_s,
            phase_s=phase_s,
        )
        _require_seed("DiurnalLoadGenerator", seed)
        if mean_qps <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if period_s <= 0:
            raise ValueError("period must be positive")
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.mean_qps = mean_qps
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase_s = phase_s
        self.spikes = tuple(spikes)
        self.num_items = num_items
        self._rng = np.random.default_rng(seed)

    def rate_at(self, t_s: float) -> float:
        """Instantaneous offered rate (qps) at time ``t_s``."""
        return _diurnal_rate(
            t_s, self.mean_qps, self.amplitude, self.period_s, self.phase_s,
            self.spikes,
        )

    def max_rate_qps(self) -> float:
        """Upper bound on the instantaneous rate (thinning envelope)."""
        return _diurnal_envelope(self.mean_qps, self.amplitude, self.spikes)

    def generate(self, duration_s: float) -> list[Query]:
        """All queries arriving within ``duration_s``."""
        _require_duration("DiurnalLoadGenerator.generate", duration_s)
        times = _thinned_arrivals(
            self._rng, self.rate_at, self.max_rate_qps(), duration_s
        )
        return [
            Query(query_id=qid, arrival_s=t, num_items=self.num_items)
            for qid, t in enumerate(times)
        ]


@dataclass(frozen=True)
class MixedQuery(Query):
    """One inference request tagged with its model class.

    Attributes:
        model: name of the model class this request targets (must match a
            :class:`~repro.serving.multimodel.MultiModelPool` model).
    """

    model: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.model:
            raise ValueError("a mixed query needs a model class name")


@dataclass(frozen=True)
class ModelClassRate:
    """Diurnal traffic profile of one model class.

    Attributes:
        name: model class name (matches a pool model).
        mean_qps: cycle-average arrival rate for this class.
        amplitude: relative diurnal swing in ``[0, 1]``.
        phase_s: phase offset of this class's cycle — ranking and search
            traffic peak at different hours, which is what makes
            residency churn interesting.
    """

    name: str
    mean_qps: float
    amplitude: float = 0.5
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a model class needs a name")
        _require_finite(
            "ModelClassRate",
            mean_qps=self.mean_qps,
            amplitude=self.amplitude,
            phase_s=self.phase_s,
        )
        if self.mean_qps <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")


class MixedModelLoadGenerator:
    """Seeded mixed-model arrivals: one diurnal Poisson stream per class.

    Each class rides its own sinusoid (rate, amplitude, and phase per
    :class:`ModelClassRate`) over a shared period, realized exactly by
    thinning (same scheme and seeding guarantees as
    :class:`DiurnalLoadGenerator`), then the per-class streams are merged
    into one time-ordered trace of :class:`MixedQuery`. Every class draws
    from its own child generator seeded ``[seed, class_index]``, so the
    trace — including the per-class substreams — is a pure function of
    the seed and :meth:`generate` is repeatable call over call.

    Args:
        classes: one :class:`ModelClassRate` per model class.
        period_s: shared diurnal period (simulations usually compress it).
        num_items: items per query.
        seed: RNG seed.
    """

    def __init__(
        self,
        classes: tuple[ModelClassRate, ...] | list[ModelClassRate],
        period_s: float = 86_400.0,
        num_items: int = 1,
        seed: int = 0,
    ) -> None:
        if not classes:
            raise ValueError("need at least one model class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model class names: {names}")
        _require_finite("MixedModelLoadGenerator", period_s=period_s)
        _require_seed("MixedModelLoadGenerator", seed)
        if period_s <= 0:
            raise ValueError("period must be positive")
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.classes = tuple(classes)
        self.period_s = period_s
        self.num_items = num_items
        self.seed = seed

    def generate(self, duration_s: float) -> list[MixedQuery]:
        """All queries within ``duration_s``, time-ordered across classes.

        The queries of one class, in order, are that class's substream:
        the arrivals it would draw alone. The static-partitioning arm of
        the ``multimodel`` experiment feeds each substream to its own
        partition, so both arms see byte-identical per-class traffic.
        """
        _require_duration("MixedModelLoadGenerator.generate", duration_s)
        tagged = []
        for index, cls in enumerate(self.classes):
            times = _thinned_arrivals(
                np.random.default_rng([self.seed, index]),
                lambda t_s, cls=cls: _diurnal_rate(
                    t_s, cls.mean_qps, cls.amplitude, self.period_s, cls.phase_s
                ),
                _diurnal_envelope(cls.mean_qps, cls.amplitude),
                duration_s,
            )
            tagged.extend((t_s, index, cls.name) for t_s in times)
        tagged.sort(key=lambda item: (item[0], item[1]))
        return [
            MixedQuery(
                query_id=qid,
                arrival_s=t_s,
                num_items=self.num_items,
                model=name,
            )
            for qid, (t_s, _, name) in enumerate(tagged)
        ]
