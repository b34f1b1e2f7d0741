"""Write perfbench/golden/<workload>.json from one seed-0 job per workload.

Usage: python3 perfbench/make_golden.py [WORKLOAD ...]

The golden files hold the constants of the commit they were made on, keyed
by the standard-label reduced words of u, v and w.  Regenerate them only
when a change of constants is intended and checked by other means.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        w = run.WORKLOADS[name]
        perm = tuple(range(w.rank))
        job = run.run_job(w, perm, golden={})
        if job.proc.returncode != 0 or job.records is None:
            print(f"{name}: job failed: {job.problems}", file=sys.stderr)
            return 1
        records = [
            {"u": u, "v": v, "w": x, "value": value}
            for (u, v, x), value in sorted(job.records.items())
        ]
        header = json.dumps(
            {"workload": name, "matrix": w.matrix, "parabolic": w.parabolic, "degrees": w.degrees}
        )
        lines = ",\n".join("  " + json.dumps(r) for r in records)
        path = run.GOLDEN_DIR / f"{name}.json"
        path.write_text(f'{header[:-1]},\n "records": [\n{lines}\n ]}}\n')
        print(f"{path.name}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
