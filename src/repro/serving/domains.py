"""Failure-domain topology and correlated fault storms.

Real fleet failures are *correlated*: a rack power event or a top-of-rack
switch partition takes out every replica in that domain at once, which is
exactly the regime where per-replica retry and hedge policies are weakest
(Hsia et al., arXiv:2010.05037 — at-scale effects are dominated by
cross-machine structure). This module adds the missing structure:

* :class:`FleetTopology` — a deterministic replica → host → rack → zone
  assignment derived purely from the fleet size and per-level widths, so
  the same fleet always maps to the same domains.
* **Domain fault events** — :class:`DomainCrash` (power loss: every
  replica in the domain dies and its in-memory state is destroyed),
  :class:`DomainPartition` (network isolation: replicas are unreachable
  but their state survives) and :class:`DomainSlowdown` (shared-resource
  degradation across the domain), composed in a declarative
  :class:`DomainSchedule`.
* **Compilation** — :meth:`DomainSchedule.expand_to_schedule` lowers a
  domain schedule to ordinary per-replica
  :class:`~repro.serving.faults.FaultSchedule` primitives. The router
  (its Python loop and its kernel alike) and the simulator consume the
  expanded schedule unchanged, so every bit-identity proof keeps
  holding; the
  crash-vs-partition distinction matters only to the shard-recovery model
  (:mod:`repro.serving.distributed`), which a router cannot observe
  anyway (a dead replica and an unreachable one refuse connections the
  same way).
* :func:`domain_storm` — a seeded generator of correlated storms, the
  domain-level sibling of :func:`~repro.serving.faults.fault_storm`.

Expansion is pure, deterministic and permutation-invariant: the expanded
schedule's injector tuples are canonically sorted, so two schedules with
the same events in any order expand identically
(``tests/test_domains.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.sparse import _integer
from .faults import FaultSchedule, ReplicaCrash, Straggler
from .loadgen import _require_finite, _require_seed

#: Domain kinds, innermost to outermost. ``host`` is the blast radius of
#: an independent machine failure; ``rack`` shares power and a top-of-rack
#: switch; ``zone`` shares a power feed / network spine.
DOMAIN_HOST = "host"
DOMAIN_RACK = "rack"
DOMAIN_ZONE = "zone"
DOMAIN_KINDS = (DOMAIN_HOST, DOMAIN_RACK, DOMAIN_ZONE)


def _check_kind(kind: str) -> None:
    if kind not in DOMAIN_KINDS:
        raise ValueError(
            f"unknown domain kind {kind!r}; valid kinds: {DOMAIN_KINDS}"
        )


def _check_event(kind: str, domain_id: int) -> None:
    """The checks every domain event shares: a known kind, an id >= 0."""
    _check_kind(kind)
    if _integer("domain_id", domain_id) < 0:
        raise ValueError("domain_id must be non-negative")


@dataclass(frozen=True)
class FleetTopology:
    """Deterministic replica → host → rack → zone assignment.

    Replica ``r`` lives on host ``r // replicas_per_host``; host ``h``
    sits in rack ``h // hosts_per_rack``; rack ``k`` belongs to zone
    ``k // racks_per_zone``. The assignment is pure arithmetic on the
    fleet size — no RNG — so a fleet of a given shape always maps to the
    same domains, and two runs over the same topology agree byte for
    byte.

    Attributes:
        num_replicas: replicas (model-serving processes) in the fleet.
        replicas_per_host: co-located replicas per physical host.
        hosts_per_rack: hosts sharing one rack (power + ToR switch).
        racks_per_zone: racks sharing one zone (power feed / spine).
    """

    num_replicas: int
    replicas_per_host: int = 1
    hosts_per_rack: int = 4
    racks_per_zone: int = 2

    def __post_init__(self) -> None:
        if _integer("num_replicas", self.num_replicas) < 1:
            raise ValueError("need at least one replica")
        for name in ("replicas_per_host", "hosts_per_rack", "racks_per_zone"):
            if _integer(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------- sizes

    @property
    def num_hosts(self) -> int:
        """Hosts actually occupied by the fleet."""
        return -(-self.num_replicas // self.replicas_per_host)

    @property
    def num_racks(self) -> int:
        """Racks actually occupied by the fleet."""
        return -(-self.num_hosts // self.hosts_per_rack)

    @property
    def num_zones(self) -> int:
        """Zones actually occupied by the fleet."""
        return -(-self.num_racks // self.racks_per_zone)

    def num_domains(self, kind: str) -> int:
        """Occupied domain count for one kind."""
        _check_kind(kind)
        if kind == DOMAIN_HOST:
            return self.num_hosts
        if kind == DOMAIN_RACK:
            return self.num_racks
        return self.num_zones

    # ------------------------------------------------------- assignment

    def host_of(self, replica_id: int) -> int:
        """Host holding ``replica_id``."""
        if not 0 <= replica_id < self.num_replicas:
            raise ValueError(f"replica {replica_id} outside fleet")
        return replica_id // self.replicas_per_host

    def rack_of(self, replica_id: int) -> int:
        """Rack holding ``replica_id``."""
        return self.host_of(replica_id) // self.hosts_per_rack

    def zone_of(self, replica_id: int) -> int:
        """Zone holding ``replica_id``."""
        return self.rack_of(replica_id) // self.racks_per_zone

    def domain_of(self, replica_id: int, kind: str) -> int:
        """Domain of ``kind`` holding ``replica_id``."""
        _check_kind(kind)
        if kind == DOMAIN_HOST:
            return self.host_of(replica_id)
        if kind == DOMAIN_RACK:
            return self.rack_of(replica_id)
        return self.zone_of(replica_id)

    def host_domain(self, host_id: int, kind: str) -> int:
        """Domain of ``kind`` holding ``host_id``."""
        _check_kind(kind)
        if not 0 <= host_id < self.num_hosts:
            raise ValueError(f"host {host_id} outside fleet")
        if kind == DOMAIN_HOST:
            return host_id
        rack = host_id // self.hosts_per_rack
        return rack if kind == DOMAIN_RACK else rack // self.racks_per_zone

    def replicas_in(self, kind: str, domain_id: int) -> tuple[int, ...]:
        """Replica ids inside one domain (ascending)."""
        _check_kind(kind)
        if not 0 <= domain_id < self.num_domains(kind):
            raise ValueError(
                f"{kind} {domain_id} outside topology "
                f"({self.num_domains(kind)} {kind}s)"
            )
        return tuple(
            r
            for r in range(self.num_replicas)
            if self.domain_of(r, kind) == domain_id
        )

    def hosts_in(self, kind: str, domain_id: int) -> tuple[int, ...]:
        """Host ids inside one domain (ascending)."""
        _check_kind(kind)
        if not 0 <= domain_id < self.num_domains(kind):
            raise ValueError(
                f"{kind} {domain_id} outside topology "
                f"({self.num_domains(kind)} {kind}s)"
            )
        return tuple(
            h
            for h in range(self.num_hosts)
            if self.host_domain(h, kind) == domain_id
        )


def diverse_domain_order(topology: FleetTopology, kind: str) -> tuple[int, ...]:
    """Domain ids ordered so *consecutive* entries diversify parents.

    Racks are interleaved across zones (rack 0 of zone 0, rack 0 of zone
    1, rack 1 of zone 0, ...) and hosts across zone-interleaved racks, so
    a placement walking this order in sequence puts adjacent copies in
    different parent domains — rack-spread copies also straddle zones
    whenever the fleet has more than one.
    """
    _check_kind(kind)
    if kind == DOMAIN_ZONE:
        return tuple(range(topology.num_zones))
    rack_order = sorted(
        range(topology.num_racks),
        key=lambda r: (r % topology.racks_per_zone, r // topology.racks_per_zone),
    )
    if kind == DOMAIN_RACK:
        return tuple(rack_order)
    rack_rank = {r: i for i, r in enumerate(rack_order)}
    return tuple(
        sorted(
            range(topology.num_hosts),
            key=lambda h: (
                h % topology.hosts_per_rack,
                rack_rank[h // topology.hosts_per_rack],
            ),
        )
    )


def best_spread(topology: FleetTopology, num_copies: int) -> str:
    """Widest domain kind that can hold ``num_copies`` distinct copies.

    Prefers ``zone`` over ``rack`` over ``host`` — the widest blast
    radius the topology can actually spread across. Raises when even
    host-level spread is infeasible (more copies than hosts).
    """
    if num_copies < 1:
        raise ValueError("need at least one copy")
    for kind in (DOMAIN_ZONE, DOMAIN_RACK, DOMAIN_HOST):
        if topology.num_domains(kind) >= num_copies:
            return kind
    raise ValueError(
        f"cannot spread {num_copies} copies across {topology.num_hosts} "
        f"hosts; shrink the replication factor or grow the fleet"
    )


# ----------------------------------------------------------- domain events


@dataclass(frozen=True)
class DomainCrash:
    """Every replica in the domain dies at ``at_s`` (power loss).

    In-memory state on the domain's hosts — including resident embedding
    shard copies — is destroyed; hosts restart ``downtime_s`` later but
    come back *cold* (the shard-recovery model re-streams lost copies).
    """

    kind: str
    domain_id: int
    at_s: float
    downtime_s: float

    def __post_init__(self) -> None:
        _check_event(self.kind, self.domain_id)
        _require_finite("DomainCrash", at_s=self.at_s)
        if self.at_s < 0:
            raise ValueError("crash time must be non-negative")
        # Not _require_finite: an infinite downtime is a permanent loss,
        # which recovery_timeline models; a nan one is rejected.
        if not self.downtime_s > 0:
            raise ValueError(
                f"DomainCrash.downtime_s must be positive, got {self.downtime_s!r}"
            )


@dataclass(frozen=True)
class DomainPartition:
    """The domain is network-isolated for an interval (ToR/spine loss).

    Replicas inside are unreachable — to a router this is
    indistinguishable from a crash (connections are refused either way)
    — but their in-memory state *survives*: when the partition heals,
    shard copies inside are immediately live again with no re-streaming.
    """

    kind: str
    domain_id: int
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_event(self.kind, self.domain_id)
        _require_finite("DomainPartition", start_s=self.start_s)
        # Not _require_finite: an infinite duration is a permanent
        # partition, which recovery_timeline models; a nan one is rejected.
        if self.start_s < 0 or not self.duration_s > 0:
            raise ValueError(
                "DomainPartition needs start_s >= 0 and duration_s > 0, "
                f"got {self.start_s!r} and {self.duration_s!r}"
            )


@dataclass(frozen=True)
class DomainSlowdown:
    """Every replica in the domain serves ``slowdown`` x slower.

    Models a shared-resource degradation with domain blast radius — a
    failing PSU browning out a rack, an oversubscribed spine link, a bad
    kernel rollout staged by zone.
    """

    kind: str
    domain_id: int
    start_s: float
    duration_s: float
    slowdown: float

    def __post_init__(self) -> None:
        _check_event(self.kind, self.domain_id)
        _require_finite(
            "DomainSlowdown",
            start_s=self.start_s,
            duration_s=self.duration_s,
            slowdown=self.slowdown,
        )
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("slowdown interval must be non-negative/positive")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (use 1 for no effect)")


class DomainSchedule:
    """A composed, declarative set of domain-scoped fault events.

    Like :class:`~repro.serving.faults.FaultSchedule`, the schedule is
    immutable and purely declarative; unlike it, events name *domains*
    rather than replicas, and only become simulator-consumable after
    :meth:`expand_to_schedule` lowers them against a topology.
    """

    def __init__(
        self,
        crashes: tuple[DomainCrash, ...] | list[DomainCrash] = (),
        partitions: tuple[DomainPartition, ...] | list[DomainPartition] = (),
        slowdowns: tuple[DomainSlowdown, ...] | list[DomainSlowdown] = (),
    ) -> None:
        self.crashes = tuple(crashes)
        self.partitions = tuple(partitions)
        self.slowdowns = tuple(slowdowns)

    @classmethod
    def zero(cls) -> "DomainSchedule":
        """The empty schedule (injects nothing)."""
        return cls()

    @property
    def is_zero(self) -> bool:
        """True when the schedule injects nothing."""
        return not (self.crashes or self.partitions or self.slowdowns)

    def validate(self, topology: FleetTopology) -> None:
        """Raise when any event names a domain outside ``topology``."""
        for event in (*self.crashes, *self.partitions, *self.slowdowns):
            limit = topology.num_domains(event.kind)
            if event.domain_id >= limit:
                raise ValueError(
                    f"{type(event).__name__} names {event.kind} "
                    f"{event.domain_id}, but the topology has only "
                    f"{limit} {event.kind}(s)"
                )

    def expand_to_schedule(self, topology: FleetTopology) -> FaultSchedule:
        """Lower domain events to per-replica fault primitives.

        Pure and deterministic: crashes *and* partitions become one
        :class:`~repro.serving.faults.ReplicaCrash` per replica in the
        domain (a router cannot tell dead from unreachable), slowdowns
        become one :class:`~repro.serving.faults.Straggler` per replica.
        The output tuples are canonically sorted, so expansion is
        invariant under permutation of the input events.
        """
        self.validate(topology)
        crashes = [
            ReplicaCrash(replica_id=r, at_s=c.at_s, downtime_s=c.downtime_s)
            for c in self.crashes
            for r in topology.replicas_in(c.kind, c.domain_id)
        ]
        crashes.extend(
            ReplicaCrash(
                replica_id=r, at_s=p.start_s, downtime_s=p.duration_s
            )
            for p in self.partitions
            for r in topology.replicas_in(p.kind, p.domain_id)
        )
        stragglers = [
            Straggler(
                replica_id=r,
                start_s=s.start_s,
                duration_s=s.duration_s,
                slowdown=s.slowdown,
            )
            for s in self.slowdowns
            for r in topology.replicas_in(s.kind, s.domain_id)
        ]
        crashes.sort(key=lambda c: (c.at_s, c.replica_id, c.downtime_s))
        stragglers.sort(
            key=lambda s: (s.start_s, s.replica_id, s.duration_s, s.slowdown)
        )
        return FaultSchedule(crashes=tuple(crashes), stragglers=tuple(stragglers))


def expand_to_schedule(
    schedule: DomainSchedule, topology: FleetTopology
) -> FaultSchedule:
    """Module-level alias of :meth:`DomainSchedule.expand_to_schedule`."""
    return schedule.expand_to_schedule(topology)


def domain_storm(
    topology: FleetTopology,
    duration_s: float,
    seed: int,
    kinds: tuple[str, ...] = (DOMAIN_HOST, DOMAIN_RACK),
    crash_count: int = 2,
    crash_downtime_frac: tuple[float, float] = (0.05, 0.2),
    partition_count: int = 1,
    partition_duration_frac: tuple[float, float] = (0.05, 0.2),
    slowdown_count: int = 1,
    slowdown_range: tuple[float, float] = (2.0, 8.0),
    slowdown_duration_frac: tuple[float, float] = (0.1, 0.4),
) -> DomainSchedule:
    """Draw a random *correlated* storm from a dedicated seeded stream.

    The domain-level sibling of
    :func:`~repro.serving.faults.fault_storm`: each event picks a kind
    uniformly from ``kinds`` and a domain uniformly within that kind, so
    a single draw can take out a whole rack. Interval lengths scale with
    ``duration_s`` exactly as in the independent storm.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if not kinds:
        raise ValueError("need at least one domain kind")
    for kind in kinds:
        _check_kind(kind)
    _require_seed("domain_storm", seed)
    rng = np.random.default_rng(seed)

    def interval_s(frac_range: tuple[float, float]) -> float:
        return duration_s * float(rng.uniform(*frac_range))

    def scope() -> tuple[str, int]:
        kind = kinds[int(rng.integers(len(kinds)))]
        return kind, int(rng.integers(topology.num_domains(kind)))

    crashes = []
    for _ in range(crash_count):
        kind, domain_id = scope()
        crashes.append(
            DomainCrash(
                kind=kind,
                domain_id=domain_id,
                at_s=float(rng.uniform(0.0, 0.8 * duration_s)),
                downtime_s=interval_s(crash_downtime_frac),
            )
        )
    partitions = []
    for _ in range(partition_count):
        kind, domain_id = scope()
        partitions.append(
            DomainPartition(
                kind=kind,
                domain_id=domain_id,
                start_s=float(rng.uniform(0.0, 0.8 * duration_s)),
                duration_s=interval_s(partition_duration_frac),
            )
        )
    slowdowns = []
    for _ in range(slowdown_count):
        kind, domain_id = scope()
        slowdowns.append(
            DomainSlowdown(
                kind=kind,
                domain_id=domain_id,
                start_s=float(rng.uniform(0.0, 0.7 * duration_s)),
                duration_s=interval_s(slowdown_duration_frac),
                slowdown=float(rng.uniform(*slowdown_range)),
            )
        )
    return DomainSchedule(
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        slowdowns=tuple(slowdowns),
    )
