"""Record the reference outputs of every workload at the default seed.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for every operation, its step count
and the sha256 of each CSV it writes. ``run.py`` compares the default
seed's outputs with it and reports ``cli.outputs_identical``. Record it
again only for a deliberate behaviour change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, REFERENCE, WORKLOADS, Runner, import_package
from workloads import DEFAULT_SEED, build_workload, materialize


def main() -> int:
    cli = import_package()
    workdir = OUT / "reference-work"
    reference = {}
    try:
        for name in WORKLOADS:
            workload = build_workload(name, DEFAULT_SEED)
            materialize(workload, workdir)
            results = Runner(workload, workdir, cli).run_pass(0)
            failed = [f"{r.op}: {r.failure}" for r in results if r.failed]
            if failed:
                print("\n".join(failed), file=sys.stderr)
                return 1
            reference[name] = {r.op: {"steps": r.steps, "sha256": r.hashes} for r in results}
            print(f"{name}: {len(results)} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"seed": DEFAULT_SEED, "workloads": reference}
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
