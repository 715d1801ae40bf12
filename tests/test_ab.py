from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.1, 5.0, 5.2]  # median 5.05, quartiles 5.0 and 5.175


def test_a_clear_gain_on_every_pair_is_a_gain():
    change = [p * 0.85 for p in PARENT]
    v = ab.verdict(PARENT, change, "lower", 0.24)
    assert v["change_wins"] == v["pairs"] == 10 and v["gain"] and v["within_bound"]
    assert v["parent_median"] == 5.05 and v["parent_quartiles"] == pytest.approx([5.0, 5.175])
    assert v["parent_iqr"] == pytest.approx(0.175) and v["ratio"] == pytest.approx(0.85)
    lo, hi = v["ratio_ci95"]
    assert lo <= 0.85 <= hi and hi - lo < 1e-9  # every resample of a constant ratio gives it
    # the same numbers for a metric where higher is better: the change lost every pair
    v = ab.verdict(PARENT, change, "higher", 0.24)
    assert v["change_wins"] == 0 and not v["gain"] and v["within_bound"]


def test_nine_wins_are_enough_and_eight_are_not():
    change = [p - 0.4 for p in PARENT]  # a gap of 0.4 against an IQR of 0.175
    for losses, gain in ((0, True), (1, True), (2, False)):
        mixed = [p + 0.1 if k < losses else c for k, (p, c) in enumerate(zip(PARENT, change))]
        v = ab.verdict(PARENT, mixed, "lower", 0.24)
        assert (v["change_wins"], v["gain"]) == (10 - losses, gain)


def test_a_gap_inside_the_parents_spread_is_no_gain():
    change = [p - 0.15 for p in PARENT]  # wins every pair, but 0.15 < IQR 0.175
    v = ab.verdict(PARENT, change, "lower", 0.24)
    assert v["change_wins"] == 10 and not v["gain"]
    v = ab.verdict(PARENT, [p - 0.2 for p in PARENT], "lower", 0.24)
    assert v["gain"]


def test_more_failed_operations_or_an_incorrect_run_is_no_gain():
    change = [p * 0.85 for p in PARENT]
    assert ab.verdict(PARENT, change, "lower", 0.24, (3, 3), True)["gain"]
    assert not ab.verdict(PARENT, change, "lower", 0.24, (3, 4), True)["gain"]
    assert not ab.verdict(PARENT, change, "lower", 0.24, (0, 0), False)["gain"]
    assert ab.verdict(PARENT, change, "lower", 0.24, (0, 4), False)["within_bound"]  # judged on its own


def test_the_bound_is_relative_and_in_the_worse_direction():
    worse = [p * 1.3 for p in PARENT]
    assert not ab.verdict(PARENT, worse, "lower", 0.24)["within_bound"]
    assert ab.verdict(PARENT, worse, "lower", 0.31)["within_bound"]
    assert ab.verdict(PARENT, worse, "higher", 0.24)["within_bound"]  # higher is better here
    assert not ab.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.24)["within_bound"]
    assert ab.verdict(PARENT, [p * 0.7 for p in PARENT], "lower", 0.24)["within_bound"]


def test_each_metric_gets_one_of_four_outcomes():
    # PARENT's IQR over its median is 0.175 / 5.05, about 0.035
    assert ab.verdict(PARENT, [p * 0.85 for p in PARENT], "lower", 0.24)["outcome"] == "gain"
    assert ab.verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.24)["outcome"] == "loss"
    assert ab.verdict(PARENT, [p * 1.01 for p in PARENT], "lower", 0.24)["outcome"] == "no change"
    # a bound tighter than the parent's spread cannot call the same numbers unchanged
    assert ab.verdict(PARENT, [p * 1.01 for p in PARENT], "lower", 0.02)["outcome"] == "unresolved"
    # unless every change run reads better than every parent run
    skewed = [4.9] * 5 + [5.0, 5.5, 5.6, 5.7, 5.8]  # median 4.95, IQR 0.675: 4.85 everywhere is no gain
    v = ab.verdict(skewed, [4.85] * 10, "lower", 0.1)
    assert (v["gain"], v["outcome"]) == (False, "no change")
    assert ab.verdict(skewed, [4.85] * 9 + [4.95], "lower", 0.1)["outcome"] == "unresolved"

def test_bootstrap_is_seeded_and_brackets_the_ratio():
    change = [4.1, 4.6, 4.0, 4.9, 4.2, 4.4, 4.5, 4.3, 4.8, 4.0]
    first = ab.bootstrap_ratio(PARENT, change)
    assert first == ab.bootstrap_ratio(PARENT, change)
    lo, hi = first
    ratio = ab.statistics.median(change) / ab.statistics.median(PARENT)
    assert lo < ratio < hi < 1


def test_pairs_alternate_which_side_runs_first():
    assert [ab.order(k) for k in range(4)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


# a stand-in for the benchmark command: prints a fixed result, slower on
# the revision that holds the marker file, and sleeps when told to
_FAKE_RUN = """\
import json, os, sys, time
seed = int(sys.argv[sys.argv.index("--seed") + 1])
assert sys.argv[sys.argv.index("--seconds") + 1] == "7"  # the run length BENCHMARK.json gives
if os.path.exists("sleep"):
    open(os.environ["AB_STARTED"], "w").write(str(os.getpid()))
    time.sleep(60)
value = 10.0 + seed / 100 if os.path.exists("slow") else 8.0 + seed / 100
print("report line")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {"t_ms": {"value": value, "unit": "ms"}}}))
"""


def _fake_repo(path: Path, marker: str) -> None:
    path.mkdir()
    bench = {
        "command": [sys.executable, "run.py"],
        "run_seconds": 7,
        "end_to_end": [{"name": "t_ms", "better": "lower", "bound": 0.24}],
    }
    (path / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    (path / "run.py").write_text(_FAKE_RUN, encoding="utf-8")
    (path / marker).write_text("", encoding="utf-8")
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=path, check=True)
    subprocess.run([*git, "add", "-A"], cwd=path, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], cwd=path, check=True)
    (path / marker).unlink()
    subprocess.run([*git, "commit", "-q", "-a", "-m", "change"], cwd=path, check=True)


def _worktrees(repo: Path) -> int:
    out = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True, check=True).stdout
    return len(out.splitlines())


def test_a_run_compares_two_revisions_and_removes_its_worktrees(tmp_path):
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    _fake_repo(repo, "slow")
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    cmd = [sys.executable, _spec.origin, "HEAD~1", "HEAD", "--workload", "w", "--pairs", "10", "--seed", "1",
           "--out", str(tmp_path / "ab.json")]
    done = subprocess.run(cmd, cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "ab.json").read_text(encoding="utf-8"))
    v = report["workloads"]["w"]["metrics"]["t_ms"]
    assert v["parent"] == [10.0 + s / 100 for s in range(1, 11)]
    assert v["change"] == [8.0 + s / 100 for s in range(1, 11)]
    assert v["change_wins"] == 10 and v["gain"] and v["within_bound"]
    assert report["workloads"]["w"]["attempted"] == {"parent": 30, "change": 30} and report["seconds"] == 7
    assert "gain yes" in done.stdout
    assert list(scratch.iterdir()) == [] and _worktrees(repo) == 1


def test_sigterm_ends_the_running_benchmark_and_removes_the_worktrees(tmp_path):
    repo, scratch, started = tmp_path / "repo", tmp_path / "tmp", tmp_path / "started"
    _fake_repo(repo, "sleep")
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch), AB_STARTED=str(started))
    cmd = [sys.executable, _spec.origin, "HEAD~1", "HEAD", "--workload", "w", "--pairs", "2", "--seed", "1"]
    tool = subprocess.Popen(cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not started.exists() or not started.read_text():
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(started.read_text())
        assert _worktrees(repo) == 3
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert list(scratch.iterdir()) == [] and _worktrees(repo) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)
