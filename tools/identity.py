"""Byte-identity check of the command line against a base revision.

    python tools/identity.py BASE_REV

Checks BASE_REV out into a temporary git worktree and runs every case of
CASES on that tree and on this working tree, with ``python -W error -m
fairrec.cli`` and PYTHONPATH set to the tree's src/, under
OPENBLAS_NUM_THREADS=1 and then =2. Each case runs in a fresh empty
directory, with relative paths, so that lines such as ``wrote fig1.csv``
match. For each command the exit code, stdout and stderr are compared, and
for each case the bytes of every file it leaves. The differences are
printed as a table; the exit status is 1 if there is any, else 0. A change
that means to move a result names the lines that moved in CHANGES.md.

Every case exits 0: refusals (exit 2) are pinned in process by
tests/test_cli.py. A command that exits otherwise on this working tree is
reported as a difference, even where BASE_REV exits the same way. The
inputs a case needs besides its own commands' outputs (the MovieLens-layout
directory, the thinned datasets and the config files) are written by this
working tree's code for both trees.
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# written out, not imported from the package, so that the list stays the same
# whichever tree it runs
REGIMES = ("U", "O", "P", "P+O")
PENALTIES = ("none", "value", "absolute", "under", "over", "parity", "under:2+over")
GEN = ["synth-gen", "--users", "40", "--items", "30", "--out", "d.txt"]
SMALL = ["--users", "40", "--items", "30", "--trials", "2", "--iterations", "5"]


def write_ml(directory: str) -> None:
    """ml/: a MovieLens-1M-layout directory of 60 users and 30 movies."""
    subprocess.run([sys.executable, "-W", "error", "-c",
                    "import workloads; workloads.write_ml1m('ml', 0, 60, 30)"],
                   cwd=directory, check=True, env=dict(
                       os.environ, PYTHONPATH=os.pathsep.join(
                           [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])))


def thin(name: str, keep: int, every: int, fill: tuple):
    """A step that writes ``name``: d.txt (40 x 30) with ``keep`` of every
    ``every`` rating lines kept. Its fill, which picks the factorization's
    paths, must lie in [fill[0], fill[1])."""
    def step(directory: str) -> None:
        with open(os.path.join(directory, "d.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        ratings = itertools.count(1)
        kept = [line for line in lines
                if not line.startswith("r ") or next(ratings) % every < keep]
        share = sum(line.startswith("r ") for line in kept) / (40 * 30)
        assert fill[0] <= share < fill[1], f"{name}: {share:.2%} fill"
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.writelines(kept)
    return step


def configs(directory: str) -> None:
    """Config files for synth-gen (with a comment and the "key value" form),
    train (read as a MovieLens run, with a penalty) and reproduce-table1."""
    for name, text in (("gen.cfg", "# a comment\nusers 40\nitems = 30\nregime P\n"),
                       ("train.cfg", "source = movielens\npenalty = absolute\niterations = 10\n"),
                       ("t1.cfg", "regime = U\nusers = 40\nitems = 30\ntrials = 2\n"
                                  "iterations = 5\n")):
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def trains(data: str) -> list:
    """A 20-iteration train of every default penalty on ``data``, each model
    evaluated by RMSE, and the unpenalized one by MSE as well."""
    steps = []
    for k, spec in enumerate(PENALTIES):
        steps += [["train", "--data", data, "--penalty", spec, "--iterations", "20",
                   "--out", f"m{k}.txt"],
                  ["eval", "--model", f"m{k}.txt", "--data", data]]
    return steps + [["eval", "--model", "m0.txt", "--data", data, "--error-metric", "mse"]]


# Each case: its steps in order, each a command line or a function of the
# case directory that writes an input.
CASES = {
    **{f"synth-gen {regime}": [["synth-gen", "--regime", regime, *GEN[1:]]]
       for regime in REGIMES},
    "train dense": [GEN, *trains("d.txt")],
    # gathered predictions and a CSR gradient (7% fill)
    "train sparse": [GEN, thin("sparse.txt", 1, 4, (0.0, 0.10)), *trains("sparse.txt")],
    # score-matrix predictions and a CSR gradient (11.25% fill)
    "train mid": [GEN, thin("mid.txt", 2, 5, (0.10, 0.15)), *trains("mid.txt")],
    "reproduce-fig1": [["reproduce-fig1", *SMALL, "--out", "fig1.csv"]],
    "reproduce-table1": [["reproduce-table1", *SMALL, "--out", "t1.csv"]],
    "ml-prepare": [write_ml,
                   ["ml-prepare", "--ml-path", "ml", "--min-ratings", "5", "--out", "ml.txt"],
                   ["ml-prepare", "--ml-path", "ml", "--min-ratings", "0", "--out", "all.txt"],
                   ["ml-prepare", "--ml-path", "ml", "--min-ratings", "5",
                    "--mode", "only-genres", "--out", "only.txt"]],
    "reproduce-table2": [write_ml, ["reproduce-table2", "--ml-path", "ml", "--min-ratings", "5",
                                    "--trials", "2", "--iterations", "5", "--out", "t2.csv"]],
    "config and smoothing": [
        configs,
        ["synth-gen", "--config", "gen.cfg", "--out", "g.txt"],
        ["train", "--data", "g.txt", "--config", "train.cfg", "--out", "m1.txt"],
        ["train", "--data", "g.txt", "--penalty", "absolute", "--smoothing", "1e-3",
         "--iterations", "10", "--out", "m2.txt"],
        ["reproduce-table1", "--config", "t1.cfg", "--out", "t1.csv"]],
}


def run_case(tree: str, steps: list, root: str, threads: int) -> tuple:
    """Run ``steps`` in a fresh directory under ``root`` with the package of
    ``tree``: each command's argv and its exit code, stdout and stderr as
    bytes, and every file left in the directory by relative path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS=str(threads))
    env.pop("PYTHONWARNINGS", None)
    results, files = [], {}
    with tempfile.TemporaryDirectory(dir=root) as directory:
        for step in steps:
            if callable(step):
                step(directory)
                continue
            done = subprocess.run([sys.executable, "-W", "error", "-m", "fairrec.cli", *step],
                                  cwd=directory, env=env, capture_output=True)
            results.append((step, str(done.returncode).encode(), done.stdout, done.stderr))
        for parent, _, names in os.walk(directory):
            for name in names:
                path = os.path.join(parent, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, directory)] = fh.read()
    return results, files


def first_difference(a, b) -> tuple:
    """The first line at which two outputs differ, from each; None stands
    for an absent file, and equal outputs, such as a shared exit code, are
    given whole."""
    if a is None or b is None or a == b:
        return a, b
    lines_a, lines_b = a.splitlines(), b.splitlines()
    k = next((k for k, pair in enumerate(zip(lines_a, lines_b)) if pair[0] != pair[1]),
             min(len(lines_a), len(lines_b)))
    return (lines_a[k] if k < len(lines_a) else b""), (lines_b[k] if k < len(lines_b) else b"")


def compare(base: tuple, head: tuple) -> list:
    """(output, base line, head line) for every command output and file that
    differs, and for every exit code of head that is not 0."""
    rows = []
    for (argv, *outs_a), (_, *outs_b) in zip(base[0], head[0]):
        for part, a, b in zip(("exit", "stdout", "stderr"), outs_a, outs_b):
            if a != b or (part == "exit" and b != b"0"):
                rows.append((f"{' '.join(argv)}: {part}", *first_difference(a, b)))
    for name in sorted(set(base[1]) | set(head[1])):
        a, b = base[1].get(name), head[1].get(name)
        if a != b:
            rows.append((f"file {name}", *first_difference(a, b)))
    return rows


def excerpt(line) -> str:
    """A line of output as text, cut to 80 characters, for the table."""
    return "(absent)" if line is None else repr(line.decode("utf-8", "replace")[:80])


def main(args: list) -> int:
    if len(args) != 1:
        print("usage: python tools/identity.py BASE_REV", file=sys.stderr)
        return 2
    root = tempfile.mkdtemp(prefix="fairrec-identity-")
    base_tree = os.path.join(root, "base")
    differences = []
    if subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                       base_tree, args[0]]).returncode != 0:
        shutil.rmtree(root)
        return 2
    try:
        for threads in (1, 2):
            for case, steps in CASES.items():
                rows = compare(run_case(base_tree, steps, root, threads),
                               run_case(ROOT, steps, root, threads))
                print(f"threads {threads}, {case}: {'differs' if rows else 'same'}", flush=True)
                differences += [(threads, case, *row) for row in rows]
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base_tree],
                       check=False)
        shutil.rmtree(root, ignore_errors=True)
    if not differences:
        print(f"no difference from {args[0]}")
        return 0
    print(f"\n{len(differences)} differences from {args[0]}:")
    print("threads | case | output | base | head")
    for threads, case, what, a, b in differences:
        print(f"{threads} | {case} | {what} | {excerpt(a)} | {excerpt(b)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
