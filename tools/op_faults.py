"""Page faults and CPU time per op of one in-process benchmark workload.

    python3 tools/op_faults.py --src src --workload sampled-action --seed 1 --ops 300

Puts `--src DIR` first on sys.path, takes the workload from
`perfbench/workloads.py` (read only, never changed), sets it up and runs
WARMUP_OPS ops untimed, so that first-call costs (imports, memo fills,
heap growth) stay out of the count.  It then runs `--ops` ops, each drawn
from the seeded generator as the benchmark draws it, and prints the minor
page faults, user and system CPU seconds and wall seconds of the timed
part (`run`, not `draw`) per op, from `resource.getrusage` of this
process.  Uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WARMUP_OPS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the circlet package to run")
    parser.add_argument("--workload", required=True, help="an in-process workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="ops counted after the warm-up")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error(f"--ops must be at least 1, got {args.ops}")
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import numpy as np
    from workloads import WORKLOADS

    in_process = sorted(name for name, w in WORKLOADS.items() if w.in_process)
    if args.workload not in in_process:
        parser.error(f"--workload must be one of {', '.join(in_process)}, got {args.workload}")
    wl = WORKLOADS[args.workload]
    st = wl.setup(None)
    import circlet

    if src not in Path(circlet.__file__).resolve().parents:
        parser.error(f"imported circlet from {circlet.__file__}, not from {src}")
    rng = np.random.default_rng(args.seed)
    for op in range(WARMUP_OPS):
        wl.run(st, wl.draw(st, rng), op)
    faults = user = system = wall = 0.0
    for op in range(WARMUP_OPS, WARMUP_OPS + args.ops):
        x = wl.draw(st, rng)
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        wl.run(st, x, op)
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        faults += r1.ru_minflt - r0.ru_minflt
        user += r1.ru_utime - r0.ru_utime
        system += r1.ru_stime - r0.ru_stime
        wall += t1 - t0
    print(f"# {args.workload} seed={args.seed} ops={args.ops} after {WARMUP_OPS} warm-up ops")
    print(f"minor_faults_per_op {faults / args.ops:.1f}")
    print(f"user_s_per_op {user / args.ops:.6f}")
    print(f"sys_s_per_op {system / args.ops:.6f}")
    print(f"wall_s_per_op {wall / args.ops:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
