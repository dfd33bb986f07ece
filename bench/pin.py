#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the RunStats counters of every workload at
every seed slot, which ``run.py`` compares each measured call against.

    python3 bench/pin.py [--workload NAME ...]

The counters depend on numpy's Philox and geometric sampling, so the file
records the numpy version it was made with.  Re-pinning is a change to the
benchmark: the engine must reproduce the pinned counters, not the reverse.
"""

from __future__ import annotations

import argparse
import json
import platform

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate the pinned RunStats counters")
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS),
                    help="re-pin only these workloads (default: all)")
    args = ap.parse_args(argv)
    cli, _, _, distill, _, montecarlo = run.import_program()
    import numpy

    data = (json.loads(run.PINNED.read_text(encoding="utf-8")) if run.PINNED.exists()
            else {"workloads": {}})
    data.update(numpy=numpy.__version__, python=platform.python_version(),
                slots=run.SEED_SLOTS)
    for name in args.workload or run.WORKLOADS:
        cfg, dconfig = run.build(cli, distill, name)
        pinned = []
        for slot in range(run.SEED_SLOTS):
            pinned.append(run.counters(run.run_call(montecarlo, cfg, dconfig, slot)))
            print(f"{name}: slot {slot + 1}/{run.SEED_SLOTS}", flush=True)
        data["workloads"][name] = {"config": run.WORKLOADS[name], "counters": pinned}
        run.PINNED.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
