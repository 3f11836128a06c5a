"""Check that two source trees write the same run artifacts, byte for byte.

    python3 tools/same_artifacts.py PARENT_SRC CHANGE_SRC [--case NAME]...

Each argument is a directory holding the `eegraph` package (a checkout's
`src/`). For every case, each tree runs `eegraph synth`, `eegraph train`
and `eegraph inspect` on every fold checkpoint in a fresh process; the
`gradcheck` case runs `eegraph gradcheck` once. The bundle, `report.json`,
`history.json`, every `fold*.ckpt` and the printed inspect and gradcheck
output are then compared byte for byte. The first file that differs is
named and the exit code is 1; 0 means every case matched, and 2 means a
command failed or an argument was wrong.

The cases are the three perfbench workloads as `perfbench/run.py --seed 0`
runs them, the `gate` shape for 5 epochs (as it is, at dropout 0.5, and
with graph-level adaptation and weight decay), a 6-channel
subject-dependent run with NodeDAT, and `gate_tiny` for a quick check.
BLAS thread variables left unset are pinned to 1, as perfbench does.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cases() -> dict[str, tuple[dict, dict]]:
    """Case name -> (synth config, train config with its protocol)."""
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    cases = {}
    for name, w in workloads.items():
        synth = dict(w["synth"], seed=w["synth_seed"]["base"])
        train = dict(w["train"], seed=w["train_seed"]["base"], protocol="loso")
        cases[name] = (synth, train)
    gate_synth, gate_train = cases["gate"]
    tiny = workloads["gate"]["tiny"]
    cases["gate_tiny"] = (dict(gate_synth, **tiny["synth"]), dict(gate_train, **tiny["train"]))
    short = dict(gate_train, epochs=5)
    cases["gate_e5"] = (gate_synth, short)
    cases["gate_e5_dropout"] = (gate_synth, dict(short, dropout=0.5))
    cases["gate_e5_graph"] = (gate_synth, dict(short, node_dat=False, dat_graph_level=True,
                                               weight_decay=0.01))
    cases["subject_dependent6"] = (
        dict(subjects=3, trials_per_class=4, samples_per_trial=8, n_channels=6, n_bands=5,
             n_classes=3, class_separation=6.0, seed=5),
        dict(epochs=5, hidden_dim=8, batch_size=8, node_dat=True, seed=3,
             protocol="subject_dependent", train_trials=2),
    )
    return cases


def _eegraph(src: Path, args: list, stdout_to: Path | None = None) -> None:
    """Run one eegraph command against `src`; exit 2 if it fails."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.run([sys.executable, "-m", "eegraph", *map(str, args)],
                          cwd=src, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"eegraph {' '.join(map(str, args))} with {src} exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    if stdout_to is not None:
        stdout_to.write_text(proc.stdout)


def run_case(name: str, src: Path, out: Path) -> None:
    """Write one case's artifacts from the tree `src` into the empty directory `out`."""
    if name == "gradcheck":
        _eegraph(src, ["gradcheck"], out / "gradcheck.json")
        return
    synth, train = _cases()[name]
    (out / "synth.json").write_text(json.dumps(synth))
    (out / "train.json").write_text(json.dumps(train))
    _eegraph(src, ["synth", "--config", out / "synth.json", "--out", out / "bundle"])
    _eegraph(src, ["train", "--data", out / "bundle", "--config", out / "train.json",
                   "--out", out / "run"])
    n = synth["n_channels"]
    for ckpt in sorted((out / "run").glob("fold*.ckpt")):
        _eegraph(src, ["inspect", "--checkpoint", ckpt, "--top-k", min(10, n * (n - 1) // 2)],
                 out / f"inspect_{ckpt.stem}.json")


def first_difference(a: Path, b: Path) -> str | None:
    """The first file, relative to the two directories, that is missing or differs."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    only = sorted(set(files_a) ^ set(files_b))
    if only:
        return f"{only[0]} (only in {a if only[0] in files_a else b})"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return str(rel)
    return None


def main(argv=None) -> int:
    names = [*_cases(), "gradcheck"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--case", action="append", choices=names,
                        help="run only this case (repeatable); default: all")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "eegraph" / "__init__.py").is_file():
            parser.exit(2, f"{src} holds no eegraph package\n")
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        for name in args.case or names:
            sides = [Path(tmp, side, name) for side in ("parent", "change")]
            for src, out in zip((args.parent_src, args.change_src), sides):
                out.mkdir(parents=True)
                run_case(name, src.resolve(), out)
            diff = first_difference(*sides)
            if diff is not None:
                print(f"{name}: differs at {diff}")
                return 1
            print(f"{name}: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
