"""The four benchmark workloads.

Each workload has a set-up, and an op made of three steps: `draw` builds
the op's inputs from the seeded generator (untimed), `run` is the timed
work, and `check` applies the op's correctness gate (untimed) at the
bound the test suite uses for the same computation.

circlet is imported lazily, on first use, so that a worker can time the
import in a fresh interpreter and a CLI set-up sample never pays for it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from tracer import SETUP

CLI_TIMEOUT_S = 120.0
CIRCLE_SAMPLES = 1024
SIGNAL_BAND = 16


def band_signal(grid, rng, n_band=SIGNAL_BAND):
    """Sample-only trig polynomial in modes |n| <= n_band, weights 1/(1+n^2)."""
    import numpy as np
    from circlet import CircleSignal

    t = grid.nodes
    vals = np.zeros(grid.n_samples, dtype=complex)
    for n in range(-n_band, n_band + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + n * n)
        vals += c * np.exp(2j * n * t)
    return CircleSignal(grid, vals)


def rel_l2(got, want) -> float:
    import numpy as np

    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class CircleRoundtrip:
    """In-process analyze + synthesize at the default 400 scales, n_max 64."""

    name = "circle-roundtrip"
    in_process = True

    def setup(self, ctx):
        from circlet import CircleGrid, lambda_sequence, make_dog

        grid = CircleGrid(CIRCLE_SAMPLES)
        gamma = make_dog(2.0, grid=grid)
        report = lambda_sequence(gamma)
        if not report.admissible:
            raise RuntimeError("dog:2 report is not admissible")
        return {"grid": grid, "gamma": gamma, "report": report}

    def draw(self, st, rng):
        return band_signal(st["grid"], rng)

    def run(self, st, psi, op):
        from circlet import analyze, synthesize

        scal = analyze(psi, st["gamma"])
        return synthesize(scal, st["gamma"], st["report"])

    def check(self, st, psi, rec):
        return rel_l2(rec.values, psi.values) < 1e-10


class SampledAction:
    """In-process rep_action on a sample-only signal (dense interpolation)."""

    name = "sampled-action"
    in_process = True

    def setup(self, ctx):
        from circlet import CircleGrid

        return {"grid": CircleGrid(CIRCLE_SAMPLES)}

    def draw(self, st, rng):
        import numpy as np

        psi = band_signal(st["grid"], rng)
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        vartheta = float(rng.uniform(-np.pi / 2, np.pi / 2))
        return psi, a, vartheta

    def run(self, st, x, op):
        from circlet import rep_action

        psi, a, vartheta = x
        return rep_action(psi, a, vartheta)

    def check(self, st, x, acted):
        return abs(acted.norm() / x[0].norm() - 1.0) < 1e-6


class LineHalfline:
    """In-process line round trip, ladder Laplace transforms, flat limit."""

    name = "line-halfline"
    in_process = True

    def setup(self, ctx):
        import circlet
        from circlet import (LaguerreBasisSpec, LineGrid, LineSignal, LogGrid,
                             laguerre_function, line_admissibility, mexican_hat,
                             smooth_bump)

        grid = LineGrid(-16.0, 16.0, 2048)
        wavelet = mexican_hat(grid)
        adm = line_admissibility(wavelet)
        if not adm.admissible:
            raise RuntimeError("mexican hat fails the line admissibility integral")
        spec = LaguerreBasisSpec(k=1.0)
        rgrid = LogGrid(1e-3, 80.0, 6000)
        # the line scale grid may be merged into the circle one later
        scale_grid = getattr(circlet, "LineScaleGrid", circlet.ScaleGrid)
        return {
            "grid": grid,
            "wavelet": wavelet,
            "adm": adm,
            "scales": scale_grid(1e-2, 1e2, 200),
            "spec": spec,
            "ladder": [laguerre_function(spec, n, rgrid) for n in range(5)],
            "bump": LineSignal.from_evaluator(grid, smooth_bump(1.0)),
        }

    def draw(self, st, rng):
        import numpy as np
        from circlet import LineSignal

        k0, width = rng.uniform(4.0, 6.0), rng.uniform(0.8, 1.25)
        x0, phase = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * np.pi)

        def wave(x):
            return np.cos(k0 * x + phase) * np.exp(-0.5 * ((x - x0) / width) ** 2)

        f = LineSignal.from_evaluator(st["grid"], wave)
        w = complex(rng.uniform(0.5, 2.5), rng.uniform(-2.0, 2.0))
        move = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
        return f, w, move

    def run(self, st, x, op):
        from circlet import (ContractionParams, euclidean_limit_error, laplace_transform,
                             line_analyze, line_synthesize)

        f, w, (b, a) = x
        scal = line_analyze(f, st["wavelet"], st["scales"])
        rec = line_synthesize(scal, st["wavelet"], st["adm"])
        transforms = [laplace_transform(fn, st["spec"], w) for fn in st["ladder"]]
        flat = [euclidean_limit_error(st["bump"], b, a, ContractionParams(r))
                for r in (10.0, 1000.0)]
        return rec, transforms, flat

    def check(self, st, x, out):
        from circlet import halfplane_basis

        f, w, _ = x
        rec, transforms, (err_10, err_1000) = out
        gap = max(abs(got - complex(halfplane_basis(st["spec"], n, w)))
                  for n, got in enumerate(transforms))
        return (rel_l2(rec.values, f.values) < 1e-2
                and gap < 1e-8
                and err_1000 < err_10 / 50.0)


class CliPipeline:
    """`circlet cwt` then `circlet icwt` as subprocesses on a seeded signal file."""

    name = "cli-pipeline"
    in_process = False

    def setup(self, ctx):
        rc, wall = ctx.cli("admissibility", ["--builtin", "dog:2", "--out", "report.json"], SETUP)
        if rc != 0:
            raise RuntimeError(f"circlet admissibility exited {rc}")
        return {"ctx": ctx, "setup_s": wall}

    def draw(self, st, rng):
        from circlet import CircleGrid
        from circlet.io import write_signal

        psi = band_signal(CircleGrid(CIRCLE_SAMPLES), rng)
        write_signal(st["ctx"].work / "sig.csv", psi)
        return psi

    def run(self, st, psi, op):
        ctx = st["ctx"]
        rc, _ = ctx.cli("cwt", ["--builtin", "dog:2", "--signal", "sig.csv", "--out", "scal"], op)
        if rc != 0:
            return rc
        rc, _ = ctx.cli("icwt", ["--builtin", "dog:2", "--scalogram", "scal",
                                 "--report", "report.json", "--out", "rec.csv"], op)
        return rc

    def check(self, st, psi, rc):
        from circlet.io import read_signal

        if rc != 0:
            return False
        rec = read_signal(st["ctx"].work / "rec.csv")
        return rel_l2(rec.values, psi.values) < 1e-10

    def scalogram_bytes(self, st) -> int:
        return sum(p.stat().st_size for p in st["ctx"].work.glob("scal*"))


WORKLOADS = {w.name: w for w in (CircleRoundtrip(), CliPipeline(), SampledAction(), LineHalfline())}


class CliRunner:
    """Runs circlet subcommands in a work directory, plainly or traced.

    Plain runs use `python -m circlet.cli`; traced runs go through the
    benchmark's launcher, whose span dump is collected into `procs`.
    """

    def __init__(self, work: Path, traced: bool):
        self.work = work
        self.traced = traced
        self.procs: list[dict] = []
        self._launcher = Path(__file__).with_name("launch_cli.py")

    def cli(self, command, args, op):
        spans = self.work / f"spans-{len(self.procs)}.json"
        if self.traced:
            cmd = [sys.executable, str(self._launcher), "--spans", str(spans), "--op", str(op), "--"]
        else:
            cmd = [sys.executable, "-m", "circlet.cli"]
        t0 = time.perf_counter()
        res = subprocess.run(cmd + [command] + args, cwd=self.work, capture_output=True,
                             text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if res.returncode != 0:
            sys.stderr.write(f"circlet {command} exited {res.returncode}:\n{res.stderr}")
        if self.traced and spans.exists():
            proc = json.loads(spans.read_text())
            spans.unlink()
            proc.update(command=command, op=op, wall_s=wall)
            self.procs.append(proc)
        return res.returncode, wall
