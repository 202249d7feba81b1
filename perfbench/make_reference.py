"""
Regenerate perfbench/reference.json: the field_error each reference case
gives at the current commit. Run from the root of a checkout:

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter the estimate; the
benchmark's output check compares every run against these values.
"""

import pinning  # noqa: F401  (before anything can import numpy)

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REL_TOL = 1e-6


def main():
    out = {"field_error": {}}
    for name in ("survey", "long_mission", "study"):
        wl = workloads.WORKLOADS[name]
        values = []
        for case in range(wl.cases):
            work = HERE.parent / ".bench_work" / "reference" / name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl.prepare(case, work)
            st = wl.setup(work, case)
            values.append(wl.field_error(st, wl.run_pass(st)))
            print(name, case, values[-1], flush=True)
        out["field_error"][name] = {"rel_tol": REL_TOL, "cases": values}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
