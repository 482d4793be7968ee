#!/usr/bin/env python3
"""Check that the checkout's program writes the same bits as a parent revision.

    python3 tools/compare.py --parent REV

REV is extracted with `git archive` into a temporary directory outside the
checkout, and the checkout's working tree (`src/` and `perfbench/`) is
copied beside it.  Each tree, run from its own `src/` with one BLAS thread,
then writes the same outputs into a directory of its own:
  - the blob images (`blob_image(size, seed=7)`) at 64², 128² and 256²;
  - `sparsescan run` directories for lsq 256², nn 128² and svr 64², with
    the tree's committed `perfbench/models/` and default options;
  - an `eval --no-walltime` report and its sidecar: lsq, nn and random at
    64², 2 repeats, checkpoints at 10% and 20%;
  - a `train --db-out` CSV and the lsq model it fits on the 64² image;
  - the models `perfbench/make_models.py` writes, each of which must `cmp`
    equal to the tree's `perfbench/models/`;
  - the count metrics of a traced `greedy-lsq-256` and `greedy-nn-128`
    round (`perfbench/run.py --trace 1 --seed 1`), which must report
    `correct` and no failure.
The two output directories must then hold the same files with the same
bytes.  The one exception is a `model=` or `image=` line whose values in
both files are absolute paths: those name each tree's own files.  Exits 1
on any difference, and names each one.  The temporary directory, with both
trees, their outputs and a log of every command, is kept, and its path
printed, only when a difference is found.
"""

import argparse
import filecmp
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = (("lsq", 256), ("nn", 128), ("svr", 64))
TRACED = ("greedy-lsq-256", "greedy-nn-128")
# model=/image= lines name each tree's own files, so their values may differ
_PATH_LINE = re.compile(rb"^(model|image)=(/.*)$")
# a per-layer line of perfbench/run.py whose metric counts work
_COUNT_LINE = re.compile(r"^\S+\s+\S+\s+(count|rows)$")


def _same_but_paths(a: bytes, b: bytes) -> bool:
    """a and b are equal line for line, but for absolute model=/image= values."""
    lines_a, lines_b = a.split(b"\n"), b.split(b"\n")
    if len(lines_a) != len(lines_b):
        return False
    for x, y in zip(lines_a, lines_b):
        if x == y:
            continue
        mx, my = _PATH_LINE.match(x), _PATH_LINE.match(y)
        if not (mx and my and mx.group(1) == my.group(1)):
            return False
    return True


def _files(top: Path) -> set:
    return {p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()}


def compare_dirs(a, b) -> list:
    """The differences between two output directories, one message each."""
    a, b = Path(a), Path(b)
    files_a, files_b = _files(a), _files(b)
    problems = [f"only in {a}: {rel}" for rel in sorted(files_a - files_b)]
    problems += [f"only in {b}: {rel}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        if not _same_but_paths((a / rel).read_bytes(), (b / rel).read_bytes()):
            problems.append(f"differs: {rel}")
    return problems


def compare_models(made, committed) -> list:
    """make_models.py's output against the committed models, by cmp."""
    made, committed = Path(made), Path(committed)
    names = sorted(p.name for p in committed.glob("*.slnm"))
    if not names:
        return [f"no committed models in {committed}"]
    problems = []
    for name in names:
        if not (made / name).is_file():
            problems.append(f"make_models.py wrote no {name}")
        elif not filecmp.cmp(made / name, committed / name, shallow=False):
            problems.append(f"{made / name} differs from {committed / name}")
    return problems


def _python(tree: Path, args, cwd: Path, log) -> str:
    """Run python with args against tree's src/; its output goes to log and is returned."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), SLADS_THREADS="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, *map(str, args)]
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    log.write(f"$ {' '.join(argv)}\n{proc.stdout}{proc.stderr}\n")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def produce(tree: Path, out: Path, log) -> list:
    """Write tree's outputs into out; returns the problems found on the way."""
    out.mkdir(parents=True)
    models = tree / "perfbench" / "models"
    cli = ["-m", "sparsescan.cli"]
    sizes = sorted({size for _, size in RUNS} | {64})
    _python(tree, ["-c", (
        "from sparsescan import save_image\n"
        "from sparsescan.synth import blob_image\n"
        f"for s in {sizes}:\n"
        "    save_image(f'blob-{s}.pgm', blob_image(s, seed=7).values)\n"
    )], out, log)
    for kind, size in RUNS:
        _python(tree, [*cli, "run", "--model", models / f"{kind}.slnm",
                       "--image", f"blob-{size}.pgm", "--out", f"run-{kind}-{size}"], out, log)
    _python(tree, [*cli, "eval", "--model", models / "lsq.slnm", models / "nn.slnm",
                   "--method", "random", "--image", "blob-64.pgm", "--out", "eval.csv",
                   "--repeats", "2", "--budget", "0.20", "--densities", "0.10,0.20",
                   "--no-walltime"], out, log)
    _python(tree, [*cli, "train", "--images", "blob-64.pgm", "--regressor", "lsq",
                   "--out", "train-lsq.slnm", "--db-out", "train-lsq.csv"], out, log)
    _python(tree, [tree / "perfbench" / "make_models.py", "--out", out / "models"], out, log)
    problems = compare_models(out / "models", models)
    for workload in TRACED:
        text = _python(tree, [tree / "perfbench" / "run.py", "--workload", workload,
                              "--seed", "1", "--seconds", "1", "--trace", "1"], tree, log)
        lines = text.splitlines()
        if not lines or '"correct": true' not in lines[-1] or '"failed": 0' not in lines[-1]:
            problems.append(f"{tree}: traced {workload} is not correct or failed")
        counts = [line for line in lines if _COUNT_LINE.match(line)]
        (out / f"trace-{workload}.txt").write_text("\n".join(counts) + "\n")
    return problems


def extract(rev: str, dest: Path) -> None:
    """Write the tree of rev, as git archive gives it, into dest."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **kwargs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, metavar="REV", help="git revision to compare")
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="sparsescan-compare-"))
    problems = []
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        extract(args.parent, trees["parent"])
        skip = shutil.ignore_patterns("__pycache__", "*.pyc", "out")
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, trees["change"] / part, ignore=skip)
        with open(work / "log.txt", "w") as log:
            for name, tree in trees.items():
                print(f"writing the outputs of {name} ...", flush=True)
                problems += produce(tree, work / f"out-{name}", log)
        problems += compare_dirs(work / "out-parent", work / "out-change")
    finally:
        if problems:  # the directory only helps to look into a difference
            print(f"kept {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem)
    print("same bits" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
