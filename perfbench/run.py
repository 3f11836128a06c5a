"""End-to-end benchmark of the eegraph `synth` -> `train --protocol loso` path.

    python3 perfbench/run.py --workload gate|seed62|seed62_wide --seed N
                             --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy. Each invocation:

1. pins the BLAS thread variables (to 1 where unset) and records the
   environment;
2. writes the workload's bundle with `eegraph synth`, several times,
   and reports the median as `setup_s`;
3. runs `eegraph gradcheck` once;
4. with `--trace 0`, repeats `eegraph train --protocol loso` in a fresh
   process per repeat (so peak RSS is the train run's own) until
   `--seconds` are used, at least twice, and reports the medians of
   `samples_per_s` and `peak_rss_mb`, and `heldout_acc`;
   with `--trace 1`, runs train untraced, traced, untraced and reports
   the per-layer figures and the tracing overhead;
5. checks every train run: the CLI exits 0, `report.json` is identical
   across repeats, and every fold checkpoint reloads and reproduces its
   fold's reported accuracy.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Lines before it print each metric with its
unit, `failed_fraction` and the environment. Everything the run writes
stays under `.perfbench_work/` at the checkout root (or `--workdir`).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15     # setup_s is the median of these
MIN_REPEATS = 2        # train repeats per timed run; two are needed to compare reports
DEADLINE_S = 150.0     # no train repeat starts that would end after this
BUNDLE_FILES = ("manifest.json", "features.f32", "labels.i64")


class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, reasons: list[str]) -> bool:
        """Count one operation; it failed if any reason is given."""
        self.attempted += 1
        self.failed += bool(reasons)
        self.reasons.extend(reasons)
        return not reasons


def pin_threads() -> dict:
    """Set unset BLAS thread variables to 1 and say whether all are pinned.

    Must run before numpy is imported. A variable counts as pinned when
    it holds a whole number between 1 and the usable CPU count.
    """
    nproc = len(os.sched_getaffinity(0))
    set_here = [v for v in THREAD_VARS if v not in os.environ]
    for var in set_here:
        os.environ[var] = "1"
    values = {v: os.environ[v] for v in THREAD_VARS}
    pinned = all(s.isdigit() and 1 <= int(s) <= nproc for s in values.values())
    return {"thread_vars": values, "set_by_benchmark": set_here,
            "threads_pinned": pinned, "nproc": nproc}


def environment(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "cpu": cpu, **threads}


def workloads() -> dict:
    """Workload definitions: configs, seed rules and reasons."""
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def workload_configs(name: str, seed: int, tiny: bool) -> tuple[dict, dict]:
    """The synth and train config documents for one workload and seed."""
    spec = workloads()[name]
    synth, train = dict(spec["synth"]), dict(spec["train"])
    if tiny:
        synth.update(spec["tiny"]["synth"])
        train.update(spec["tiny"]["train"])
    for doc, key in ((synth, "synth_seed"), (train, "train_seed")):
        rule = spec[key]
        doc["seed"] = rule["base"] + rule["per_seed"] * seed
    return synth, train


def quiet_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def bundle_digest(path: Path) -> str:
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update((path / name).read_bytes())
    return h.hexdigest()


def run_setup(cli, work: Path, synth_path: Path, repeats: int, tally: Tally, tracer=None):
    """Write the bundle `repeats` times; return the timings and the kept bundle.

    Every write must produce the same bytes. Only the first bundle is kept.
    """
    times, first_digest, bundle = [], None, work / "bundle"
    for k in range(repeats):
        out = bundle if k == 0 else work / f"bundle{k}"
        ctx = tracer if tracer is not None else contextlib.nullcontext()
        with ctx:
            start = time.perf_counter()
            rc = quiet_cli(cli, ["synth", "--config", str(synth_path), "--out", str(out)])
            elapsed = time.perf_counter() - start
        reasons = [] if rc == 0 else [f"setup {k}: synth exited {rc}"]
        if rc == 0:
            digest = bundle_digest(out)
            first_digest = first_digest or digest
            if digest != first_digest:
                reasons.append(f"setup {k}: bundle bytes differ from the first write")
            times.append(elapsed)
        if k:
            shutil.rmtree(out, ignore_errors=True)
        tally.attempt(reasons)
    return times, bundle


def run_child(bundle: Path, train_path: Path, out: Path, timeout: float, spans: Path | None = None):
    """One train run in a fresh process; returns (result dict or None, reasons)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--data", str(bundle),
           "--config", str(train_path), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"{out.name}: train did not finish within {timeout:.0f} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, [f"{out.name}: worker exited {proc.returncode} ({tail[0]})"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        return None, [f"{out.name}: eegraph train exited {result['rc']}"]
    return result, []


class RunChecker:
    """Checks one train run's outputs against the bundle and earlier runs."""

    def __init__(self, eegraph, bundle: Path, train_doc: dict):
        self.eegraph = eegraph
        ds = eegraph.load_dataset(bundle)
        self.folds = eegraph.split_loso(ds)
        epochs, bs = train_doc["epochs"], train_doc["batch_size"]
        n_train = [fold_train.n_samples for fold_train, _ in self.folds]
        self.samples = epochs * sum(n_train)
        self.steps = epochs * sum(math.ceil(k / bs) for k in n_train)
        self.report_digest = None

    def check(self, out: Path) -> tuple[dict | None, list[str]]:
        """Return the parsed report (or None) and the failed checks."""
        tag = out.name
        path = out / "report.json"
        if not path.is_file():
            return None, [f"{tag}: no report.json"]
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        reasons = []
        if self.report_digest is None:
            self.report_digest = digest
        elif digest != self.report_digest:
            reasons.append(f"{tag}: report.json differs from the first run of this seed")
        report = json.loads(raw)
        if len(report["folds"]) != len(self.folds):
            return report, reasons + [f"{tag}: {len(report['folds'])} folds, expected {len(self.folds)}"]
        for i, (_, fold_test) in enumerate(self.folds):
            try:
                ckpt = self.eegraph.load_checkpoint(out / f"fold{i}.ckpt")
                acc, _ = self.eegraph.evaluate(ckpt.cfg, ckpt.params, fold_test)
            except self.eegraph.EegraphError as exc:
                reasons.append(f"{tag}: fold {i} checkpoint does not reload ({exc})")
                continue
            if acc != report["folds"][i]["accuracy"]:
                reasons.append(f"{tag}: fold {i} checkpoint scores {acc}, "
                               f"report says {report['folds'][i]['accuracy']}")
        return report, reasons


def checkpoint_bytes_per_fold(out: Path, folds: int) -> float:
    return sum((out / f"fold{i}.ckpt").stat().st_size for i in range(folds)) / folds


def merge_summaries(*summaries: dict) -> dict:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for label, row in summary.items():
            acc = merged.setdefault(label, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
            for key in acc:
                acc[key] += row[key]
    return merged


def checked_child(checker, bundle, train_path, out, t_start, tally, spans=None):
    """Run train once in a fresh process and check it; None if it failed."""
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    result, reasons = run_child(bundle, train_path, out, max(remaining, 10.0), spans)
    if result is not None:
        result["report"], more = checker.check(out)
        reasons += more
    return result if tally.attempt(reasons) else None


def timed_runs(checker, bundle, train_path, work, seconds, t_start, tally) -> list[dict]:
    """Repeat train until `seconds` are used (at least MIN_REPEATS times)."""
    results, spent = [], []
    begin = time.perf_counter()
    while True:
        out = work / f"run{len(spent)}"
        t0 = time.perf_counter()
        result = checked_child(checker, bundle, train_path, out, t_start, tally)
        spent.append(time.perf_counter() - t0)
        if result is not None:
            results.append(result)
        if len(spent) > 1:
            shutil.rmtree(out, ignore_errors=True)
        typical = statistics.median(spent)
        if len(spent) >= MIN_REPEATS and time.perf_counter() - begin + typical > seconds:
            break
        if time.perf_counter() - t_start + typical > DEADLINE_S:
            break
    return results


def end_to_end(results, setup_times, checker) -> dict:
    rates = [checker.samples / r["wall_s"] for r in results]
    return {
        "samples_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "heldout_acc": (results[0]["report"]["mean"], "fraction"),
    }


def traced_runs(checker, bundle, train_path, work, t_start, tally, setup_summary) -> dict:
    """Untraced, traced, untraced train runs; the per-layer figures.

    The overhead compares the traced run with the mean of the two untraced
    runs around it, which cancels a steady drift in machine speed.
    """
    import tracer as tracing

    before = checked_child(checker, bundle, train_path, work / "run0", t_start, tally)
    traced = checked_child(checker, bundle, train_path, work / "traced", t_start, tally,
                           spans=work / "spans.npz")
    after = checked_child(checker, bundle, train_path, work / "run2", t_start, tally)
    if None in (before, traced, after):
        return {}
    steps = traced["summary"]["optim.adam_step"]["calls"] or checker.steps
    if not tally.attempt([] if steps == checker.steps else
                         [f"traced: {steps} Adam steps, expected {checker.steps}"]):
        return {}
    folds = len(checker.folds)
    summary = merge_summaries(traced["summary"], setup_summary)
    metrics = tracing.layer_metrics(summary, steps, folds)
    traced_rate = checker.samples / traced["wall_s"]
    plain_rate = checker.samples / statistics.mean((before["wall_s"], after["wall_s"]))
    metrics.update({
        "checkpoint.bytes_per_fold": (checkpoint_bytes_per_fold(work / "traced", folds), "bytes/fold"),
        "trace.samples_per_s": (traced_rate, "1/s"),
        "trace.untraced_samples_per_s": (plain_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (plain_rate - traced_rate) / plain_rate, "%"),
    })
    print(f"bases: {steps} Adam steps, {folds} folds, {checker.samples} training samples")
    if traced["absent"]:
        print("absent names (counted as zero): " + ", ".join(traced["absent"]))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a seconds-long smoke run")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work",
                        help="where bundles and run outputs go")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "eegraph" / "__init__.py").is_file():
        print(f"error: no eegraph package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import eegraph
    from eegraph import cli

    if Path(eegraph.__file__).resolve().parent != (SRC / "eegraph").resolve():
        print(f"error: imported eegraph from {eegraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(threads)

    work = args.workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    synth_doc, train_doc = workload_configs(args.workload, args.seed, args.tiny)
    synth_path, train_path = work / "synth.json", work / "train.json"
    synth_path.write_text(json.dumps(synth_doc))
    train_path.write_text(json.dumps(train_doc))

    tally = Tally()
    repeats = []
    setup_tracer = None
    if args.trace:
        import tracer as tracing

        setup_tracer = tracing.Tracer()
    setup_times, bundle = run_setup(cli, work, synth_path, 1 if args.trace else SETUP_REPEATS,
                                    tally, setup_tracer)
    if not setup_times:
        print("error: the workload bundle could not be written: " + "; ".join(tally.reasons),
              file=sys.stderr)
        return 1
    rc = quiet_cli(cli, ["gradcheck"])
    tally.attempt([] if rc == 0 else [f"gradcheck exited {rc}"])

    checker = RunChecker(eegraph, bundle, train_doc)
    if args.trace:
        metrics = traced_runs(checker, bundle, train_path, work, t_start, tally,
                              setup_tracer.summary())
    else:
        results = timed_runs(checker, bundle, train_path, work, args.seconds, t_start, tally)
        metrics = end_to_end(results, setup_times, checker) if results else {}
        repeats = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for r in results]
    if not metrics:
        print("error: no train run succeeded: " + "; ".join(tally.reasons), file=sys.stderr)
        return 1

    failed = tally.failed
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "synth": synth_doc, "train": train_doc,
              "samples_per_run": checker.samples, "steps_per_run": checker.steps,
              "setup_times_s": setup_times, "train_repeats": repeats,
              "attempted": tally.attempted, "failures": tally.reasons, "metrics": values}
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    if not env["threads_pinned"]:
        print("warning: BLAS thread variables are not pinned to 1..nproc")
    for reason in tally.reasons:
        print("failed: " + reason)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_fraction {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
