#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Run from a git checkout of the repository:

    python3 tools/pair.py --against HEAD --workload sine-smallchunk-sporadic \\
        --pairs 10 --seed 0 --seconds 10 --out BENCH_31.json

The parent is ``--against REV`` exported with ``git archive``; the change is
a copy of the working tree (its tracked and untracked files that git does not
ignore). Each side runs its own, unchanged ``e2ebench/run.py --trace 0`` in a
fresh process from its own directory. Pair k runs the parent first when k is
even and the change first when k is odd.

For every end-to-end metric in ``BENCHMARK.json`` the series reports each
side's values, median and inclusive quartiles, the pairs the change won (a
strictly better run), the change's relative gap against the parent, and two
verdicts: ``within_bound``, the change's median no worse than the parent's
by more than the metric's bound, and ``gap_rule_met``, the change better in
at least nine tenths of the pairs with a median gap larger than the parent's
interquartile range. It also stores each run's ``correct`` flag and, per
pair, ``digests_equal``: whether both runs printed the same trace
``digest``. So a change that moves traces shows at every ``--seed``, not only
at the default one that ``run.py`` checks against its reference, and a
stderr warning names each pair that differs. Last come two ``src/`` line
counts of each side: ``src_lines``, every line, and ``src_code_lines``, the
lines that hold code. The series is printed as JSON, and with ``--out`` it
is merged into that file under ``workloads["<workload>-seed<S>"]``,
replacing an earlier series of the same name.
"""

from __future__ import annotations

import argparse
import ast
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          timeout=120).stdout


def export_parent(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = dest.parent / "parent.tar"
    archive.write_bytes(git("archive", "--format=tar", commit))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def copy_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / name.decode()
        if name and source.is_file():  # a tracked file deleted in the tree is left out
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def src_lines(side_dir: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (side_dir / "src").rglob("*.py"))


def src_code_lines(side_dir: Path) -> int:
    """The ``src/`` lines that hold code, by the AST: each line some node
    other than a docstring starts or ends on. Docstrings, comments, blank
    lines and the inner lines of a multi-line string are left out."""
    total = 0
    for path in (side_dir / "src").rglob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = {id(part) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and ast.get_docstring(node, clean=False) is not None
                      for part in (node.body[0], node.body[0].value)}
        total += len({line for node in ast.walk(tree)
                      if getattr(node, "end_lineno", None) is not None and id(node) not in docstrings
                      for line in (node.lineno, node.end_lineno)})
    return total


def run_once(side_dir: Path, args) -> tuple[dict, dict, str | None]:
    """One fresh benchmark process; returns its final JSON line, its env line
    and the digest of its first job's traces."""
    command = [sys.executable, "e2ebench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--profile", args.profile]
    proc = subprocess.run(command, cwd=side_dir, capture_output=True, text=True,
                          timeout=600 + 20 * args.seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"pair: {' '.join(command)} in {side_dir} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return json.loads(lines[-1]), env, digest


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's figures and verdicts over the pairs, by the metric's direction."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gap = c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    relative = gap / p["median"] if p["median"] else 0.0
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_vs_parent": relative,
        "change_worse_by": sign * relative,
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
        "within_bound": sign * relative <= spec["bound"],
        "gap_rule_met": wins >= 0.9 * len(parent) and sign * gap < 0 and abs(gap) > iqr,
    }


def run_series(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        commit = export_parent(args.against, dirs["parent"])
        copy_working_tree(dirs["change"])
        values = {side: {m["name"]: [] for m in spec} for side in SIDES}
        correct = {side: [] for side in SIDES}
        order, env, digests_equal = [], {}, []
        for k in range(args.pairs):
            sides = SIDES if k % 2 == 0 else SIDES[::-1]
            order.append(list(sides))
            digests = {}
            for side in sides:
                result, run_env, digests[side] = run_once(dirs[side], args)
                env = env or run_env
                correct[side].append(result["correct"])
                for m in spec:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"pair {k + 1}/{args.pairs} {side}: " + "  ".join(
                    f"{m['name']} {values[side][m['name']][-1]:.6g}" for m in spec),
                    file=sys.stderr, flush=True)
            digests_equal.append(digests["parent"] is not None and digests["parent"] == digests["change"])
            if not digests_equal[-1]:
                print(f"pair {k + 1}/{args.pairs}: WARNING: the traces differ, parent digest "
                      f"{digests['parent']}, change digest {digests['change']}",
                      file=sys.stderr, flush=True)
        lines = {side: src_lines(dirs[side]) for side in SIDES}
        code_lines = {side: src_code_lines(dirs[side]) for side in SIDES}
    return {
        "command": (f"python3 e2ebench/run.py --workload {args.workload} --seed {args.seed} "
                    f"--seconds {args.seconds} --trace 0 --profile {args.profile}"),
        "parent_commit": commit,
        "environment": {key: env.get(key) for key in ("cores", "python", "numpy")},
        "src_lines": {**lines, "net": lines["change"] - lines["parent"]},
        "src_code_lines": {**code_lines, "net": code_lines["change"] - code_lines["parent"]},
        "series": {
            "pairs": args.pairs,
            "order": order,
            "correct": correct,
            "digests_equal": digests_equal,
            "metrics": {m["name"]: compare(m, values["parent"][m["name"]],
                                           values["change"][m["name"]]) for m in spec},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--against", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--out", default=None, help="JSON file to merge the series into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    found = run_series(args)
    series = found.pop("series")
    print(json.dumps({**found, "series": series}, indent=1, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        record = json.loads(out.read_text()) if out.exists() else {}
        record.update(found)
        record["method"] = (
            "tools/pair.py: the parent exported with git archive and a copy of the working "
            "tree, each in its own directory; a fresh process per run; the parent first in "
            "even pairs and the change first in odd pairs; figures are the scaled ones "
            "run.py prints; quartiles are inclusive; a pair win is a strictly better change run")
        record.setdefault("workloads", {})[f"{args.workload}-seed{args.seed}"] = {
            "command": record.pop("command"), **series}
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
