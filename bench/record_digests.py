#!/usr/bin/env python3
"""Record the reference digests that check.py compares outputs against.

    python3 bench/record_digests.py

Runs every command of every workload once for each of seeds 0-39,
exactly as run.py does, checks the invariants, and writes the SHA-256 of
each report and SVG to bench/digests.json (the whole table, every time)
together with the Python and NumPy versions they were made with (the
Gamma streams, and so the bytes, belong to NumPy's generator). Record
them at a commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import run

check, workloads = run.check, run.workloads


SEEDS = range(40)


def record(cli, name: str, seed: int, work: Path) -> dict:
    wl = workloads.build(name, seed, work / "inputs")
    workloads.validate(wl)
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    batch = run.run_batch(cli, wl, out_dir, None, traced=False)
    if batch.failures:
        raise SystemExit(f"{name} seed {seed}: {batch.failures}")
    return {
        cmd.label: check.sha256(
            Path(cmd.out).read_bytes() if cmd.out
            else (out_dir / f"{cmd.label}.stdout").read_bytes()
        )
        for cmd in wl.commands
    }


def main() -> int:
    cli = run.import_cli()
    import numpy as np

    table = {name: {} for name in workloads.NAMES}
    work = run.WORK_ROOT / "record"
    try:
        for name in workloads.NAMES:
            for seed in SEEDS:
                table[name][str(seed)] = record(cli, name, seed, work / f"{name}-{seed}")
                shutil.rmtree(work / f"{name}-{seed}")
            print(f"{name}: {len(table[name])} seeds", flush=True)
    finally:
        run.remove_work(work)
    payload = {"python": platform.python_version(), "numpy": np.__version__,
               "workloads": table}
    check.DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
