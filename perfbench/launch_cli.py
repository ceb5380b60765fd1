"""Traced launcher for the circlet CLI.

    python3 perfbench/launch_cli.py --spans FILE --op OP -- <circlet args>

Times `import circlet`, installs the benchmark's span wrappers, runs
`circlet.cli.main` on the remaining arguments, writes the spans to FILE
and exits with the CLI's exit code.
"""

import argparse
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spans", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import circlet.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.op = int(args.op) if args.op.isdigit() else args.op
    try:
        return circlet.cli.main(argv)
    finally:
        with open(args.spans, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
