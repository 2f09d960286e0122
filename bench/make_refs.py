"""Write the stored reference outputs of each workload's default seed.

    python3 bench/make_refs.py [workload ...]

Run it from the repository root, only when a reference has to be recorded
from a commit whose outputs are known to be right: the benchmark counts any
later departure from these files as a failed item.
"""

import json
import os
import sys

import run


def main(argv):
    names = argv or list(run.WORKLOAD_NAMES)
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(run.ROOT)
    sys.path[:0] = [str(run.SRC)]
    import workloads

    for name in names:
        wl = workloads.WORKLOADS[name]
        units = wl.setup(workloads.DEFAULT_SEED)
        records = {}
        for unit in units:
            rec = wl.record(unit, wl.run(unit))
            problems = wl.check(rec)
            if problems:
                raise SystemExit(f"{name} {unit.key}: {problems}")
            records[unit.key] = {k: rec[k] for k in wl.reference_fields}
        path = workloads.REF_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seed": workloads.DEFAULT_SEED,
                                    "records": records}, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(records)} records -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
