"""Paired wall and CPU time per op of one in-process workload on two source trees.

    python3 tools/op_pairs.py --src-a ../parent/src --src-b src \
        --workload circle-roundtrip --seed 701 --ops 200 --pairs 10

Each pair runs `tools/op_faults.py` once for each tree, each in a fresh
process, with the same workload, seed and op count, so both sides draw
the same ops.  Which tree runs first alternates from pair to pair (A in
even pairs, B in odd ones), so a drift of the host over the session falls
on both sides alike.  Prints one line per pair with both `wall_s_per_op`
values and, beside them, both `cpu_s_per_op` values (user + system CPU
seconds per op), so a CPU time above the wall time shows a second thread
at work; then each side's median and quartiles of wall time, and the
number of pairs in which B took less wall time than A.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

OP_FAULTS = Path(__file__).resolve().parent / "op_faults.py"


def per_op(src: str, workload: str, seed: int, ops: int) -> tuple[float, float]:
    """(wall_s_per_op, user_s_per_op + sys_s_per_op) of one op_faults.py run in a fresh process."""
    res = subprocess.run(
        [sys.executable, str(OP_FAULTS), "--src", src, "--workload", workload,
         "--seed", str(seed), "--ops", str(ops)],
        capture_output=True, text=True,
    )
    if res.returncode != 0:
        raise SystemExit(f"op_faults.py --src {src} failed:\n{res.stderr}")
    fields = dict(line.split() for line in res.stdout.splitlines() if not line.startswith("#"))
    return float(fields["wall_s_per_op"]), float(fields["user_s_per_op"]) + float(fields["sys_s_per_op"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src-a", required=True, help="circlet source tree A, the baseline")
    parser.add_argument("--src-b", required=True, help="circlet source tree B, the change")
    parser.add_argument("--workload", required=True, help="an in-process workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="ops counted per run, after the warm-up")
    parser.add_argument("--pairs", type=int, required=True, help="runs per tree; quartiles need at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    sides = {"A": args.src_a, "B": args.src_b}
    walls, cpus = {"A": [], "B": []}, {"A": [], "B": []}
    print(f"# {args.workload} seed={args.seed} ops={args.ops} pairs={args.pairs} A={args.src_a} B={args.src_b}")
    for pair in range(args.pairs):
        order = "AB" if pair % 2 == 0 else "BA"
        for side in order:
            wall, cpu = per_op(sides[side], args.workload, args.seed, args.ops)
            walls[side].append(wall)
            cpus[side].append(cpu)
        print(f"pair {pair} first={order[0]} wall_s_per_op A {walls['A'][-1]:.6f} B {walls['B'][-1]:.6f} "
              f"cpu_s_per_op A {cpus['A'][-1]:.6f} B {cpus['B'][-1]:.6f}")
    for side, values in walls.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        print(f"{side} median {median:.6f} q1 {q1:.6f} q3 {q3:.6f}")
    wins = sum(b < a for a, b in zip(walls["A"], walls["B"]))
    print(f"B wins {wins} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
