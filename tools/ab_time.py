"""Time `eegraph train` from two source trees in alternating fresh processes.

    python3 tools/ab_time.py PARENT_SRC CHANGE_SRC --workload NAME --pairs N
                             [--seed S] [--tiny]

Each tree is a directory holding the `eegraph` package (a checkout's
`src/`). The workload's synth and train configs are read from
`perfbench/workloads.json` next to this directory, with the seed rules
of `perfbench/run.py`; `--tiny` shrinks them as its `--tiny` does. Each
tree writes its own bundle once. Then each pair runs `eegraph train
--protocol loso` once per tree, each run in a fresh process that times
the call from inside (wall and CPU seconds, as perfbench's worker does),
with the parent first in even pairs and the change first in odd ones, so
both sides of a pair meet the same phase of a shared machine. BLAS
thread variables left unset are pinned to 1.

Prints each side's median and quartiles of wall and CPU seconds, the
pairs the change won on wall time, and the median of the per-pair ratios
parent wall / change wall (above 1: the change is faster). Exit code 0
when every run succeeded, 2 when an argument was wrong or a command
failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")

# Run in the child: one CLI call timed from inside, as one JSON line on the last line.
CHILD = """
import contextlib, io, json, sys, time
src, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
from eegraph import cli
with contextlib.redirect_stdout(io.StringIO()):
    start, cpu_start = time.perf_counter(), time.process_time()
    rc = cli.main(argv)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
print(json.dumps({"rc": rc, "wall_s": wall, "cpu_s": cpu}))
"""


def workload_configs(name: str, seed: int, tiny: bool) -> tuple[dict, dict]:
    """The synth and train configs of one workload, as `perfbench/run.py` builds them."""
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"][name]
    synth, train = dict(spec["synth"]), dict(spec["train"])
    if tiny:
        synth.update(spec["tiny"]["synth"])
        train.update(spec["tiny"]["train"])
    for doc, key in ((synth, "synth_seed"), (train, "train_seed")):
        doc["seed"] = spec[key]["base"] + spec[key]["per_seed"] * seed
    return synth, train


def run_cli(src: Path, argv: list) -> dict:
    """One eegraph CLI call against `src` in a fresh process; exit 2 if it fails."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *map(str, argv)],
                          cwd=src, env=env, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or result["rc"] != 0:
        print(f"eegraph {' '.join(map(str, argv))} with {src} failed:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (the median of one value is itself)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=sorted(json.loads((ROOT / "perfbench" / "workloads.json")
                                                  .read_text())["workloads"]))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="the workload's smoke-run size")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.exit(2, "--pairs must be >= 1\n")
    srcs = dict(zip(SIDES, (args.parent_src.resolve(), args.change_src.resolve())))
    for src in srcs.values():
        if not (src / "eegraph" / "__init__.py").is_file():
            parser.exit(2, f"{src} holds no eegraph package\n")
    synth, train = workload_configs(args.workload, args.seed, args.tiny)

    times = {side: {"wall_s": [], "cpu_s": []} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_time_") as tmp:
        tmp = Path(tmp)
        (tmp / "synth.json").write_text(json.dumps(synth))
        (tmp / "train.json").write_text(json.dumps(train))
        for side, src in srcs.items():
            run_cli(src, ["synth", "--config", tmp / "synth.json", "--out", tmp / side / "bundle"])
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = tmp / side / "run"
                result = run_cli(srcs[side], ["train", "--data", tmp / side / "bundle",
                                              "--config", tmp / "train.json",
                                              "--protocol", "loso", "--out", out])
                shutil.rmtree(out)
                for key in times[side]:
                    times[side][key].append(result[key])

    print(f"{args.workload} seed {args.seed}{' tiny' if args.tiny else ''}, "
          f"{args.pairs} alternating pairs")
    for side in SIDES:
        for key, values in times[side].items():
            q1, med, q3 = quartiles(values)
            print(f"{side} {key}: median {med:.4f} (quartiles {q1:.4f}-{q3:.4f})")
    ratios = [p / c for p, c in zip(times["parent"]["wall_s"], times["change"]["wall_s"])]
    wins = sum(r > 1.0 for r in ratios)
    print(f"change faster in {wins}/{args.pairs} pairs; "
          f"median parent/change wall ratio {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
