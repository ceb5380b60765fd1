"""One benchmark process: set up a workload, then run ops for a while.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure
        --seconds S --trace 0|1 --t-spawn NS --work DIR --out FILE

Started by run.py with the checkout's `src` on PYTHONPATH.  `setup` mode
stops after the set-up; `measure` mode then runs closed-loop ops (one at
a time) until S seconds have passed, and always at least one.  The
result goes to FILE as JSON.  `--t-spawn` is the CLOCK_MONOTONIC time at
which the parent started this interpreter, so set-up time covers
interpreter start.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import SETUP, Tracer
from workloads import WORKLOADS, CliRunner


def import_circlet(traced: bool):
    """Import circlet in this fresh interpreter, timing it; maybe trace it."""
    t0 = time.perf_counter()
    import circlet

    info = {
        "import_s": time.perf_counter() - t0,
        "scipy_special_loaded": "scipy.special" in sys.modules,
        "circlet_file": circlet.__file__,
    }
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    return info, tracer


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--t-spawn", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    ctx = CliRunner(Path(args.work), traced)
    result = {}
    tracer = None
    if wl.in_process:
        info, tracer = import_circlet(traced)
        result.update(info)
        if tracer:
            tracer.op = SETUP
    st = wl.setup(ctx)
    result["setup_s"] = st.get("setup_s", (time.monotonic_ns() - args.t_spawn) * 1e-9)
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    if not wl.in_process:
        # the CLI workload writes its signal files with circlet.io
        info, _ = import_circlet(False)
        result.update(info)
    import numpy as np

    rng = np.random.default_rng(args.seed)
    op_s, ok, scal_bytes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        op = len(op_s)
        if tracer:
            tracer.op = None
        x = wl.draw(st, rng)
        if tracer:
            tracer.op = op
        # a raising op or gate is a failed op, not a failed run
        t0 = time.perf_counter()
        try:
            out = wl.run(st, x, op)
        except Exception as exc:
            out = exc
        op_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = None
        try:
            passed = not isinstance(out, Exception) and bool(wl.check(st, x, out))
        except Exception as exc:
            out, passed = exc, False
        if isinstance(out, Exception):
            sys.stderr.write(f"op {op} raised {type(out).__name__}: {out}\n")
        ok.append(passed)
        if hasattr(wl, "scalogram_bytes"):
            scal_bytes.append(wl.scalogram_bytes(st))
        if time.perf_counter() >= deadline:
            break

    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result.update(
        op_s=op_s,
        ok=ok,
        scalogram_bytes=scal_bytes,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        facts=machine_facts(),
    )
    procs = ctx.procs
    if tracer:
        procs = [dict(tracer.dump(), import_s=result["import_s"])]
    result["procs"] = procs
    Path(args.out).write_text(json.dumps(result))
    return 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    for line in _read("/proc/self/maps").splitlines():
        lib = line.split()[-1]
        if "openblas" not in lib.lower():
            continue
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts() -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(idx / 'level')} {_read(idx / 'type')} {_read(idx / 'size')}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    thread_env = {k: os.environ[k] for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                  if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": thread_env,
        "circlet_threads": os.environ.get("CIRCLET_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main())
