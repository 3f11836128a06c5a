"""One `eegraph train --protocol loso` call in a fresh process.

The parent benchmark starts this script once per timed or traced run so
that the peak resident memory it reports belongs to that train run
alone. It times the call from outside the package and prints one JSON
line: the CLI exit code, the wall and CPU time, the peak RSS and, when traced,
the per-label span summary.

    python3 perfbench/worker.py --src SRC --data BUNDLE --config TRAIN.json
                                --out RUNDIR [--spans SPANS.npz]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the eegraph package")
    parser.add_argument("--data", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from eegraph import cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start, cpu_start = time.perf_counter(), time.process_time()
            rc = cli.main(["train", "--data", args.data, "--config", args.config,
                           "--protocol", "loso", "--out", args.out])
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["summary"] = tracer.summary()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
