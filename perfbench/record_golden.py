"""Record the reference outputs that ``--seed 1`` runs are checked against.

Run from the root of a checkout, after a change that is meant to alter
outputs (and only then)::

    PYTHONPATH=src python3 perfbench/record_golden.py [workload ...]

Each named workload's first :data:`OPS` ops are run with the default
seed and their summaries replace that workload's entry in
``perfbench/golden.json``.
"""

from __future__ import annotations

import json
import sys

import workloads

#: Recorded ops per workload: more than any run reaches on a 2-core host.
OPS = {"handheld_session": 48, "calibration": 24, "trace_corpus": 48}


def main(names) -> int:
    try:
        golden = workloads.load_golden()
    except FileNotFoundError:
        golden = {}
    if golden.get("seed") != workloads.DEFAULT_SEED:
        golden = {"seed": workloads.DEFAULT_SEED}
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        workload.setup()
        entries = []
        for index in range(OPS[name]):
            op_input = workload.make_input(index)
            output = workload.run(op_input)
            workload.check_bands(op_input, output)
            entries.append(workload.summary(op_input, output))
            print(f"{name} op {index} recorded", file=sys.stderr)
        golden[name] = entries
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
