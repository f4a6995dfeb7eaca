"""Capstone: a recommendation data center, end to end.

Combines the library's layers the way a capacity planner would:

1. **cluster scheduling** — split a heterogeneous fleet (Haswell +
   Broadwell + Skylake) across the RMC1/RMC2/RMC3 demand mix, comparing
   blind and heterogeneity-aware policies (LP-based);
2. **machine-level placement** — pick the SLA-optimal co-location degree
   for the dominant assignment;
3. **request routing** — simulate query streams over the provisioned
   replicas and report the tail latency each routing policy delivers.

Run:  python examples/datacenter_simulation.py
"""

from repro.analysis import format_table
from repro.config import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.hw import BROADWELL, HASWELL, SKYLAKE
from repro.serving import (
    MachinePool,
    POLICIES,
    ResilientRouter,
    SLA,
    WorkloadDemand,
    aware_capacity,
    best_placement,
    blind_capacity,
)

POOLS = [
    MachinePool(HASWELL, 16),
    MachinePool(BROADWELL, 16),
    MachinePool(SKYLAKE, 16),
]
DEMANDS = [
    WorkloadDemand(RMC1_SMALL, batch_size=4, sla=SLA(0.001), weight=0.45),
    WorkloadDemand(RMC2_SMALL, batch_size=32, sla=SLA(0.050), weight=0.35),
    WorkloadDemand(RMC3_SMALL, batch_size=32, sla=SLA(0.050), weight=0.20),
]


def step1_cluster() -> None:
    print("1) fleet scheduling (48 machines, 3 generations, 3 model classes)")
    blind = blind_capacity(POOLS, DEMANDS)
    aware = aware_capacity(POOLS, DEMANDS)
    rows = []
    for pool, aware_row in zip(POOLS, aware.assignment):
        rows.append(
            [pool.server.name, f"{pool.count}"]
            + [f"{100 * f:.0f}%" for f in aware_row]
        )
    print(format_table(
        ["pool", "machines"] + [d.config.model_class for d in DEMANDS],
        rows,
        title="   aware assignment (fraction of machine time per class):",
    ))
    print(f"   blind fleet throughput: {blind.served_scale:,.0f} items/s")
    print(f"   aware fleet throughput: {aware.served_scale:,.0f} items/s "
          f"({aware.served_scale / blind.served_scale:.2f}x)\n")


def step2_placement() -> None:
    print("2) machine-level placement (SLA-optimal co-location)")
    for demand in DEMANDS:
        for server in (BROADWELL, SKYLAKE):
            decision = best_placement(
                server, demand.config, demand.batch_size, demand.sla, max_jobs=24
            )
            if decision is None:
                print(f"   {demand.config.model_class} on {server.name}: infeasible")
            else:
                print(f"   {demand.config.model_class} on {server.name:<10} "
                      f"N={decision.num_jobs:<3} "
                      f"{decision.latency_s * 1e3:6.2f} ms  "
                      f"{decision.items_per_s / 1e3:7.1f}k items/s")
    print()


def step3_routing() -> None:
    print("3) request routing over 12 Broadwell RMC1 replicas at 85% load")
    rows = []
    for policy in POLICIES:
        router = ResilientRouter(
            BROADWELL, RMC1_SMALL, batch_size=16, num_machines=12,
            routing=policy, seed=0,
        )
        summary = router.run(
            0.85 * router.max_stable_qps(), duration_s=2.0
        ).summary()
        rows.append(
            [policy, f"{summary.p50 * 1e3:.2f}", f"{summary.p99 * 1e3:.2f}"]
        )
    print(format_table(["policy", "p50 ms", "p99 ms"], rows))


def main() -> None:
    step1_cluster()
    step2_placement()
    step3_routing()


if __name__ == "__main__":
    main()
