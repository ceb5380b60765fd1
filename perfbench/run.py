"""circlet benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; it measures the checkout it sits in (`<checkout>/src`
goes on PYTHONPATH, and the resolved `circlet.__file__` must lie inside
that checkout).  Workloads (see workloads.py):

  circle-roundtrip  in-process analyze + synthesize; the cwt layer does the
                    work, and dilated_coeffs is rebuilt twice per op.
  cli-pipeline      `circlet cwt` + `circlet icwt` as subprocesses: two
                    interpreter starts, ~17 MB of scalogram text, three
                    dilated-coefficient tables per op that no process reuses.
  sampled-action    rep_action on a sample-only signal: one dense
                    trig_interpolate per op, no cwt.
  line-halfline     line round trip, ladder Laplace transforms and the flat
                    limit: the only workload using line, laguerre, euclid.

The load is one closed-loop client: the next op starts when the last one
has finished.  BLAS threads stay at the environment's default.

--trace 0 reports the end-to-end metrics: setup_s (median over several
fresh set-ups), op_p50_s, ops_per_s and peak_rss_mb.  It also prints
op_p90_s where a run has at least 100 ops, and error_frac (failed ops
over attempted ops, also carried by `attempted` and `failed`).
--trace 1 splits the time between an untraced and a traced worker and
reports the per-layer metrics derived from the traced worker's spans
(tracer.py), plus trace.overhead_frac.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record, with the machine facts and
the commit, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPS = 5  # fresh set-ups whose median is setup_s
P90_MIN_OPS = 100


class BenchError(Exception):
    pass


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


class Runner:
    """Starts worker processes for one workload within one time budget."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = OUT / f"work-{os.getpid()}-{workload}"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def worker(self, mode: str, seconds: float = 0.0, trace: int = 0) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        out = self.work / "result.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--seconds", repr(seconds),
               "--trace", str(trace), "--work", str(self.work), "--out", str(out)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget used up before the run finished")
        t_spawn = time.monotonic_ns()
        # own session, so a worker that overruns is stopped with its CLI children
        proc = subprocess.Popen(cmd + ["--t-spawn", str(t_spawn)], env=self.env,
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} worker ({mode}) overran the time budget")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{self.workload} worker ({mode}) exited {proc.returncode}")
        result = json.loads(out.read_text())
        src = (ROOT / "src").resolve()
        if "circlet_file" in result and src not in Path(result["circlet_file"]).resolve().parents:
            raise BenchError(f"imported circlet from {result['circlet_file']}, not from {src}")
        return result

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(runner: Runner, seconds: float):
    samples = [runner.worker("setup")["setup_s"] for _ in range(SETUP_REPS - 1)]
    main = runner.worker("measure", seconds)
    samples.append(main["setup_s"])
    op_s, ok = main["op_s"], main["ok"]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "ops_per_s": (sum(ok) / sum(op_s), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    extra = {"setup_samples": samples, "op_s": op_s}
    if len(op_s) >= P90_MIN_OPS:
        extra["op_p90_s"] = statistics.quantiles(op_s, n=10)[-1]
    return metrics, extra, [main]


def traced(runner: Runner, seconds: float):
    plain = runner.worker("measure", seconds / 2)
    main = runner.worker("measure", seconds / 2, trace=1)
    n_ops = len(main["op_s"])
    metrics, absent = layer_metrics(main["procs"], n_ops)
    base = statistics.median(plain["op_s"])
    metrics.update({
        "import.circlet_s": (main["import_s"], "s"),
        "import.scipy_special_loaded": (float(main["scipy_special_loaded"]), "flag"),
        "io.scalogram_bytes": (statistics.fmean(main["scalogram_bytes"] or [0]), "bytes/op"),
        "trace.overhead_frac": ((statistics.median(main["op_s"]) - base) / base, "frac"),
    })
    extra = {"op_s": main["op_s"], "untraced_op_s": plain["op_s"], "absent": absent}
    return metrics, extra, [plain, main]


def run_workload(args, name: str) -> dict:
    runner = Runner(name, args.seed, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.trace:
            metrics, extra, mains = traced(runner, args.seconds)
        else:
            metrics, extra, mains = end_to_end(runner, args.seconds)
    finally:
        runner.cleanup()
    attempted = sum(len(m["ok"]) for m in mains)
    failed = attempted - sum(sum(m["ok"]) for m in mains)
    extra["error_frac"] = failed / attempted
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra,
        "facts": dict(mains[-1]["facts"], seed=args.seed),
        "circlet_file": mains[-1]["circlet_file"],
    }


def report(rec: dict):
    name = rec["workload"]
    for metric, (value, unit) in rec["metrics"].items():
        print(f"{name:17s} {metric:40s} {value!r} {unit}")
    extra = rec["extra"]
    print(f"{name:17s} {'error_frac':40s} {extra['error_frac']!r} "
          f"({rec['failed']} of {rec['attempted']} ops failed)")
    if "op_p90_s" in extra:
        print(f"{name:17s} {'op_p90_s':40s} {extra['op_p90_s']!r} s ({len(extra['op_s'])} ops)")
    elif not rec["trace"]:
        print(f"{name:17s} {'op_p90_s':40s} not reported: {len(extra['op_s'])} ops < {P90_MIN_OPS}")
    for target in extra.get("absent", []):
        print(f"{name:17s} {target:40s} absent: not found in this circlet")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    if not (ROOT / "src" / "circlet" / "__init__.py").is_file():
        print(f"run.py: no circlet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("run.py: need --seconds >= 0", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    commit, digest = git_commit(), src_digest()
    print(f"# circlet benchmark seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"commit={commit} src_sha256={digest}")
    records = []
    try:
        for name in names:
            records.append(run_workload(args, name))
            report(records[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(f"# machine {json.dumps(records[-1]['facts'], sort_keys=True)}")

    OUT.mkdir(exist_ok=True)
    for rec in records:
        rec.update(commit=commit, src_sha256=digest)
        path = OUT / f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
        for r in records for m, (v, u) in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
