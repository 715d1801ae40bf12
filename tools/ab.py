"""Alternating A/B benchmark pairs of two git revisions, stdlib only.

Each revision is checked out as a detached ``git worktree`` under one
temporary directory.  For each workload, pair k runs the benchmark command
of the checkout's ``BENCHMARK.json`` once in each worktree for its
``run_seconds``, both with seed ``--seed`` + k: the parent first when k is
even, the change first when k is odd, so a drift of machine speed favours
neither side.  Each run's last stdout line is the benchmark's JSON result.

Per end-to-end metric it prints both medians, the median ratio (change over
parent), the pairs the change won and a seeded bootstrap 95 % interval of
the median ratio, the ratio of the unscaled medians, and then two verdicts:

- ``gain``: the change won at least nine pairs in ten, and its median beats
  the parent's by more than the parent's interquartile range; never when a
  run of the workload was incorrect or the change failed more operations;
- ``within bound``: the median is no worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``;

and one ``outcome`` of four, the first that holds:

- ``gain``: as above;
- ``loss``: not within the bound;
- ``unresolved``: the parent's interquartile range over its median exceeds
  the bound, so its runs spread too widely to call the metric unchanged,
  unless every change run reads better than every parent run;
- ``no change``: otherwise.

The benchmark scales its metrics by a reference walk timed in the same
process.  The unscaled values are read from the result file that each run
leaves in its worktree, ``perfbench/out/result-<workload>-seed<seed>-trace0.json``
(``context.raw_unnormalised``); their median ratio is printed beside the
scaled one and kept in ``--out``, and no verdict reads it.  A scaled and an
unscaled ratio that disagree point at the reference walk, not the change.

The worktrees and the temporary directory are removed on exit, on Ctrl-C
and on SIGTERM, which also ends the running benchmark's process group.

Usage, from the root of the repository::

    python tools/ab.py HEAD~1 HEAD --workload sweep64 cli --pairs 10 \\
        --seed 4601 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
BOOTSTRAP_ROUNDS = 2000


def order(k: int) -> tuple[str, str]:
    """The sides of pair k in the order they run."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def bootstrap_ratio(parent: list[float], change: list[float], seed: int = 0) -> tuple[float, float]:
    """A 95 % interval of median(change) / median(parent), from
    ``BOOTSTRAP_ROUNDS`` resamples of the pairs drawn with a seeded generator."""
    rng, n = random.Random(seed), len(parent)
    ratios = []
    for _ in range(BOOTSTRAP_ROUNDS):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(statistics.median(change[i] for i in picks) / statistics.median(parent[i] for i in picks))
    ratios.sort()
    return ratios[int(0.025 * BOOTSTRAP_ROUNDS)], ratios[int(0.975 * BOOTSTRAP_ROUNDS) - 1]


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int] = (0, 0), correct: bool = True) -> dict:
    """Both sides' medians and quartiles, the pairs the change won, the
    median ratio with its bootstrap interval, and the two verdicts: ``gain``
    (at least 9 wins in 10 pairs and a median gap above the parent's
    interquartile range, with every run correct and no more ``failed``
    operations, parent's then change's, on the change) and ``within_bound``
    (the median no worse than the parent's by more than ``bound``,
    relatively), and the ``outcome`` they and the parent's spread give."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    pm, cm = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    iqr = p_q[1] - p_q[0]
    gain = correct and failed[1] <= failed[0] and 10 * wins >= 9 * len(parent) and sign * (pm - cm) > iqr
    within_bound = sign * (cm - pm) / pm <= bound
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)  # every change run reads better
    if gain or not within_bound:
        outcome = "gain" if gain else "loss"
    else:
        outcome = "unresolved" if iqr / pm > bound and not all_better else "no change"
    return {
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "change_median": cm,
        "parent_quartiles": list(p_q),
        "change_quartiles": list(c_q),
        "parent_iqr": iqr,
        "ratio": cm / pm,
        "ratio_ci95": list(bootstrap_ratio(parent, change)),
        "change_wins": wins,
        "pairs": len(parent),
        "gain": gain,
        "relative_change": (cm - pm) / pm,
        "bound": bound,
        "within_bound": within_bound,
        "outcome": outcome,
    }


def _run(cmd: list[str], cwd: Path) -> str:
    """Stdout of ``cmd``; its whole process group is killed if this is interrupted."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:  # Ctrl-C or SIGTERM: end the run, then unwind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"ab: {' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _unscaled(tree: Path, workload: str, seed: int) -> dict:
    """The unscaled metrics of one run, read from the result file it left in
    ``tree``, or none when it left no such file."""
    path = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["context"].get("raw_unnormalised", {})


def _pairs(command: list[str], trees: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    """Each side's benchmark results, one per seed, run in alternating
    order, each with its unscaled metrics under ``unscaled``."""
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in order(k):
            cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            result = json.loads(_run(cmd, trees[side]).strip().splitlines()[-1])
            result["unscaled"] = _unscaled(trees[side], workload, seed)
            runs[side].append(result)
            values = {m: v["value"] for m, v in result["metrics"].items()}
            print(f"{workload} pair {k + 1}/{len(seeds)} seed {seed} {side}: {json.dumps(values)}", file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)  # unwind, so the worktrees are removed
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision measured against")
    parser.add_argument("change", help="the revision measured")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="pair k runs seed + k on both sides")
    parser.add_argument("--out", type=Path, help="write every run and verdict here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {side: _git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    seeds = [args.seed + k for k in range(args.pairs)]
    seconds = bench["run_seconds"]
    report = {"commits": commits, "command": bench["command"], "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                _git("worktree", "add", "--detach", str(trees[side]), commits[side])
            for workload in args.workload:
                runs = _pairs(bench["command"], trees, workload, seeds, seconds)
                failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
                correct = all(r["correct"] for side in SIDES for r in runs[side])
                verdicts = {}
                for spec in bench["end_to_end"]:
                    name = spec["name"]
                    values = [[r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]] for side in SIDES]
                    if all(len(v) == len(seeds) for v in values):
                        verdicts[name] = verdict(*values, spec["better"], spec["bound"],
                                                 (failed["parent"], failed["change"]), correct)
                        raw = [[r["unscaled"][name] for r in runs[side] if name in r["unscaled"]] for side in SIDES]
                        if all(len(v) == len(seeds) for v in raw):
                            pm, cm = map(statistics.median, raw)
                            verdicts[name]["unscaled"] = {"parent": raw[0], "change": raw[1], "parent_median": pm,
                                                          "change_median": cm, "ratio": cm / pm}
                report["workloads"][workload] = {
                    "seeds": seeds,
                    "order": "parent first on pairs 1, 3, ...; change first on pairs 2, 4, ...",
                    "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                    "failed": failed,
                    "correct_all": correct,
                    "metrics": verdicts,
                }
                print(f"\n{workload}: parent {commits['parent'][:10]}, change {commits['change'][:10]}")
                for name, v in verdicts.items():
                    lo, hi = v["ratio_ci95"]
                    unscaled = f"{v['unscaled']['ratio']:.3f}" if "unscaled" in v else "-"
                    print(f"  {name:12} {v['parent_median']:10.4g} -> {v['change_median']:<10.4g} "
                          f"ratio {v['ratio']:.3f} [{lo:.3f}, {hi:.3f}] unscaled {unscaled}  "
                          f"won {v['change_wins']}/{v['pairs']}  "
                          f"parent IQR {v['parent_iqr']:.4g}  gain {'yes' if v['gain'] else 'no'}  "
                          f"within bound {'yes' if v['within_bound'] else 'NO'}  {v['outcome']}")
        finally:
            for side in SIDES:
                if trees[side].exists():
                    subprocess.run(["git", "worktree", "remove", "--force", str(trees[side])], capture_output=True)
            subprocess.run(["git", "worktree", "prune"], capture_output=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
