"""Digest of the command line's observable output, for byte-identity checks.

    python3 tools/cli_digest.py --src src > new.txt
    python3 tools/cli_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

Runs `python -m circlet.cli` with `--src DIR` first on PYTHONPATH, in a
temporary directory holding a seeded 1024-sample circle signal (modes
|n| <= 8), a line packet and a complex line wavelet (`sig.csv`,
`line.csv`, `odd.csv`).  It runs each command of the README's command
block, then `icwt` against a 40-scale report, a line scalogram written to
disk and a line round trip with the complex wavelet, and prints one
`md5  name` line per stdout, stderr and exit code of each command, and per
file the commands wrote.  The source directory and the
temporary directory are masked in stdout and stderr, so two trees give the
same digest exactly when they give the same output.  Uses only the
standard library; the input files are written here, not by circlet, so
they do not depend on the tree under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SEED = 20041
EXTRA = [
    "circlet admissibility --builtin dog:2 --scale-count 40 --out report40.json",
    "circlet icwt --scalogram scal --report report40.json --out rec40.csv",
    "circlet line-cwt --builtin mexican-hat --signal line.csv --scale-min 1e-2 --scale-max 1e2 --scale-count 200"
    " --out lscal",
    "circlet line-cwt --wavelet odd.csv --signal line.csv --scale-min 1e-2 --scale-max 1e2 --scale-count 200"
    " --roundtrip",
]


def write_signal(where: Path, stem: str, kind: str, window: tuple[float, float], coords, values):
    """A signal CSV and its sidecar in the circlet/signal-v1 format."""
    complex_valued = any(v.imag != 0.0 for v in values)
    rows = ["coord,re,im" if complex_valued else "coord,re"]
    for c, v in zip(coords, values):
        rows.append(f"{c!r},{v.real!r},{v.imag!r}" if complex_valued else f"{c!r},{v.real!r}")
    (where / f"{stem}.csv").write_text("\n".join(rows) + "\n")
    meta = {"schema": "circlet/signal-v1", "kind": kind, "n_samples": len(coords), "window": list(window)}
    (where / f"{stem}.meta.json").write_text(json.dumps(meta, indent=1) + "\n")


def write_inputs(where: Path):
    rng = random.Random(SEED)
    coeffs = {n: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for n in range(-8, 9)}
    n = 1024
    angles = [-math.pi / 2 + math.pi * (k + 0.5) / n for k in range(n)]
    band = [sum(c * complex(math.cos(2 * m * t), math.sin(2 * m * t)) for m, c in coeffs.items())
            for t in angles]
    write_signal(where, "sig", "circle-midpoint", (-math.pi / 2, math.pi / 2), angles, band)
    lo, hi, n = -16.0, 16.0, 2048
    xs = [lo + (hi - lo) / n * k for k in range(n)]
    packet = [complex(math.cos(5.0 * x) * math.exp(-0.5 * x * x)) for x in xs]
    write_signal(where, "line", "line-uniform", (lo, hi), xs, packet)
    # a complex wavelet whose spectrum at -k is not the conjugate of the one at +k
    odd = [complex(1.0 - x * x, 3.0 * x - x ** 3) * math.exp(-0.5 * x * x) for x in xs]
    write_signal(where, "odd", "line-uniform", (lo, hi), xs, odd)


def readme_commands() -> list[str]:
    text = README.read_text()
    return re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1).strip().splitlines()


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the circlet package to run")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_inputs(where)
        inputs = set(os.listdir(where))
        for i, line in enumerate(readme_commands() + EXTRA, start=1):
            _, *cmd = shlex.split(line)
            res = subprocess.run([sys.executable, "-m", "circlet.cli", *cmd], capture_output=True,
                                 cwd=where, env=env)
            name = f"{i:02d}-{cmd[0]}"
            for part, data in (("stdout", res.stdout), ("stderr", res.stderr)):
                data = data.replace(src.encode(), b"<src>").replace(tmp.encode(), b"<tmp>")
                print(f"{md5(data)}  {name}.{part}")
            print(f"{md5(str(res.returncode).encode())}  {name}.exit")
        for path in sorted(set(os.listdir(where)) - inputs):
            print(f"{md5((where / path).read_bytes())}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
