#!/usr/bin/env python3
"""Pin the unit digests the benchmark checks every run against.

    python3 perfbench/pin.py --seeds 0-20

Runs every cycle slot of every workload for each seed, untimed, and writes
``perfbench/expected_digests.json``. Pin again only when a change is meant
to move simulated results (a golden re-baseline), and say so in it.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range")
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    wl = run.import_program()
    hook_set = run.hooks.Hooks()
    audit = run.hooks.Audit()
    run.hooks.install_audit(hook_set, audit)
    native = run.probe_native()
    path = run.HERE / "expected_digests.json"
    doc = {"cycle": wl.CYCLE, "workloads": run.load_pins(wl.CYCLE)}
    for name in args.workload or run.WORKLOAD_NAMES:
        workload = wl.WORKLOADS[name]()
        pins = doc["workloads"].setdefault(name, {})
        for seed in range(first, last + 1):
            runner = run.Runner(wl, workload, seed, audit, native, pins={})
            units = [runner.unit(slot, run.NullRecorder()) for slot in range(wl.CYCLE)]
            failed = [unit.error for unit in units if not unit.ok]
            if failed:
                raise run.BenchmarkError(f"{name} seed {seed}: {failed[0]}")
            pins[str(seed)] = [unit.digest for unit in units]
            print(name, seed, *pins[str(seed)], flush=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
