"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one full-size op of every workload, untraced and traced, and checks
that the result line has the contract's keys, that every metric named in
BENCHMARK.json is emitted with its unit, that no op failed, and that the
traced call counts keep the workloads apart as designed.  Then checks
that the benchmark refuses to run, without a result line, in a directory
that holds only the benchmark's own files.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# traced calls per op that each workload must show at this commit
EXPECTED_CALLS = {
    "circle-roundtrip": {"cwt.dilated_coeffs.calls": 2, "circle.trig_interpolate.calls": 0},
    "cli-pipeline": {"cwt.dilated_coeffs.calls": 3, "circle.trig_interpolate.calls": 0},
    "sampled-action": {"cwt.dilated_coeffs.calls": 0, "circle.trig_interpolate.calls": 1},
    "line-halfline": {"cwt.dilated_coeffs.calls": 0, "circle.trig_interpolate.calls": 0},
}


def run(args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload, trace, problems):
    # --seconds 0 runs exactly one op (one untraced and one traced with --trace 1)
    res = run(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    tag = f"{workload} trace={trace}"
    before = len(problems)
    if res.returncode != 0:
        problems.append(f"{tag}: exit {res.returncode}\n{res.stderr}")
        return
    line = json.loads(res.stdout.strip().splitlines()[-1])
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{tag}: {line['failed']} of {line['attempted']} ops failed")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = line["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{tag}: metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{tag}: {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
    if trace:
        expected = dict(EXPECTED_CALLS[workload])
        if workload != "line-halfline":
            expected.update({name: 0 for name in line["metrics"]
                             if name.startswith(("line.", "laguerre.")) and name.endswith(".calls")})
        for name, calls in expected.items():
            got = line["metrics"].get(name, {}).get("value")
            if got != calls:
                problems.append(f"{tag}: {name} = {got}, expected {calls}")
    print(f"{tag}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)


def check_refuses_without_program(problems):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = run(["--workload", "sampled-action", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or '"correct"' in res.stdout:
        problems.append(f"bare directory: exit {res.returncode}, stdout {res.stdout!r}")
    print("bare directory refused:", res.returncode != 0, flush=True)


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, problems)
    check_refuses_without_program(problems)
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
